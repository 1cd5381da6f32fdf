package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// ckEncoder writes a Checkpoint as exactly the bytes of
// json.MarshalIndent(ck, "", " "), without reflection and without a second
// indentation pass. With memo set it also keeps a splice memo: for each
// append-only list
// (the training sets and History), the bytes it wrote for every element and
// its own copy of that element's values. On the next encode, an element
// bitwise equal to the one kept at the same index is copied as bytes, and
// from the first difference on the rest of the list is re-encoded. Nothing assumes the lists only grow,
// so a snapshot mutated in place or a shorter list is simply re-encoded.
//
// A ckEncoder is not safe for concurrent use.
type ckEncoder struct {
	// memo turns the splice memos on. Marshal leaves it off: a one-shot
	// encode would only fill memos nobody reads.
	memo bool
	// Splice memos; midX[r]/midY[r] cover MidX[r]/MidY[r].
	lowX, lowY, highX, highY listMemo[[]float64]
	midX, midY               []listMemo[[]float64]
	history                  listMemo[Observation]
	// size is the length of the last output, the next buffer's capacity.
	size int
}

// encode returns a fresh buffer holding ck's MarshalIndent bytes, or an
// error (and no bytes) when a float is NaN or infinite.
func (e *ckEncoder) encode(ck *Checkpoint) ([]byte, error) {
	w := &jsonWriter{b: make([]byte, 0, e.size+e.size/8+512)}
	w.b = append(w.b, '{')
	w.firstKey(1, "Version")
	w.int(ck.Version)
	w.key(1, "Problem")
	w.str(ck.Problem)
	w.key(1, "Dim")
	w.int(ck.Dim)
	w.key(1, "NumConstraints")
	w.int(ck.NumConstraints)
	w.key(1, "Budget")
	w.float(ck.Budget)
	w.key(1, "Gamma")
	w.float(ck.Gamma)
	w.key(1, "InitLow")
	w.int(ck.InitLow)
	w.key(1, "InitHigh")
	w.int(ck.InitHigh)
	w.key(1, "Iter")
	w.int(ck.Iter)
	w.key(1, "Cost")
	w.float(ck.Cost)
	w.key(1, "NumLow")
	w.int(ck.NumLow)
	w.key(1, "NumHigh")
	w.int(ck.NumHigh)
	w.key(1, "NumFailed")
	w.int(ck.NumFailed)
	w.key(1, "LowX")
	writeList(w, memoIf(e.memo, &e.lowX), ck.LowX, 1, rowOps)
	w.key(1, "LowY")
	writeList(w, memoIf(e.memo, &e.lowY), ck.LowY, 1, rowOps)
	w.key(1, "HighX")
	writeList(w, memoIf(e.memo, &e.highX), ck.HighX, 1, rowOps)
	w.key(1, "HighY")
	writeList(w, memoIf(e.memo, &e.highY), ck.HighY, 1, rowOps)
	w.key(1, "WarmLow")
	w.matrix(ck.WarmLow, 1)
	w.key(1, "WarmHigh")
	w.matrix(ck.WarmHigh, 1)
	if ck.SinceRefit != 0 {
		w.key(1, "SinceRefit")
		w.int(ck.SinceRefit)
	}
	w.key(1, "History")
	writeList(w, memoIf(e.memo, &e.history), ck.History, 1, historyOps)
	w.key(1, "Degradations")
	writeList(w, nil, ck.Degradations, 1, degradationOps)
	if len(ck.Pending) > 0 {
		w.key(1, "Pending")
		writeList(w, nil, ck.Pending, 1, pendingOps)
	}
	if ck.Rungs != 0 {
		w.key(1, "Rungs")
		w.int(ck.Rungs)
	}
	if len(ck.RungCosts) > 0 {
		w.key(1, "RungCosts")
		w.floats(ck.RungCosts, 1)
	}
	if ck.InitMid != 0 {
		w.key(1, "InitMid")
		w.int(ck.InitMid)
	}
	if len(ck.NumByRung) > 0 {
		w.key(1, "NumByRung")
		w.ints(ck.NumByRung, 1)
	}
	if len(ck.MidX) > 0 {
		w.key(1, "MidX")
		writeRungSets(w, e.memo, &e.midX, ck.MidX)
	}
	if len(ck.MidY) > 0 {
		w.key(1, "MidY")
		writeRungSets(w, e.memo, &e.midY, ck.MidY)
	}
	if len(ck.WarmChain) > 0 {
		w.key(1, "WarmChain")
		w.array(len(ck.WarmChain), 1, func(i int) { w.matrix(ck.WarmChain[i], 2) })
	}
	w.newline(0)
	w.b = append(w.b, '}')
	if w.err != nil {
		// A failed write may have left a memo half updated: start over.
		*e = ckEncoder{memo: e.memo}
		return nil, w.err
	}
	e.size = len(w.b)
	return w.b, nil
}

// writeRungSets writes MidX or MidY: one training set per intermediate rung,
// each through its own memo when memo is on.
func writeRungSets(w *jsonWriter, memo bool, memos *[]listMemo[[]float64], sets [][][]float64) {
	for memo && len(*memos) < len(sets) {
		*memos = append(*memos, listMemo[[]float64]{})
	}
	w.array(len(sets), 1, func(r int) {
		var m *listMemo[[]float64]
		if memo {
			m = &(*memos)[r]
		}
		writeList(w, m, sets[r], 2, rowOps)
	})
}

// memoIf returns m when on, else nil: no memo.
func memoIf[T any](on bool, m *listMemo[T]) *listMemo[T] {
	if !on {
		return nil
	}
	return m
}

// listOps tells writeList how to encode, compare and keep one element type.
type listOps[T any] struct {
	// enc writes v as a value at depth.
	enc func(w *jsonWriter, v T, depth int)
	// same reports bitwise equality with a kept copy.
	same func(v, kept T) bool
	// keep returns a copy of v that shares no storage with it.
	keep func(v T) T
}

// listMemo is the splice memo of one list: the kept copies of its elements
// and their bytes, each preceded by its separator, so that elements [0, i)
// are buf[:ends[i-1]].
type listMemo[T any] struct {
	kept []T
	ends []int
	buf  []byte
}

// writeList writes list as a JSON array at depth: null when nil, [] when
// empty. With a memo the unchanged prefix is copied from the memo and the
// memo is brought up to date; without one every element is encoded.
func writeList[T any](w *jsonWriter, m *listMemo[T], list []T, depth int, ops listOps[T]) {
	if list == nil {
		w.b = append(w.b, "null"...)
		return
	}
	if len(list) == 0 || m == nil {
		w.array(len(list), depth, func(i int) { ops.enc(w, list[i], depth+1) })
		return
	}
	i := 0
	for i < len(list) && i < len(m.kept) && ops.same(list[i], m.kept[i]) {
		i++
	}
	start := 0
	if i > 0 {
		start = m.ends[i-1]
	}
	// Encode the changed tail into the memo's own buffer.
	out := w.b
	w.b = m.buf[:start]
	m.ends = m.ends[:i]
	for j := i; j < len(list); j++ {
		w.sep(j, depth+1)
		ops.enc(w, list[j], depth+1)
		m.ends = append(m.ends, len(w.b))
	}
	m.buf, w.b = w.b, out
	m.kept = m.kept[:i]
	for _, v := range list[i:] {
		m.kept = append(m.kept, ops.keep(v))
	}
	w.b = append(w.b, '[')
	w.b = append(w.b, m.buf...)
	w.newline(depth)
	w.b = append(w.b, ']')
}

var rowOps = listOps[[]float64]{
	enc:  func(w *jsonWriter, v []float64, depth int) { w.floats(v, depth) },
	same: sameFloats,
	keep: keepFloats,
}

var historyOps = listOps[Observation]{
	enc: func(w *jsonWriter, ob Observation, depth int) {
		w.b = append(w.b, '{')
		w.firstKey(depth+1, "Iter")
		w.int(ob.Iter)
		w.key(depth+1, "X")
		w.floats(ob.X, depth+1)
		w.key(depth+1, "Fid")
		w.int(int(ob.Fid))
		w.key(depth+1, "Eval")
		w.b = append(w.b, '{')
		w.firstKey(depth+2, "Objective")
		w.float(ob.Eval.Objective)
		w.key(depth+2, "Constraints")
		w.floats(ob.Eval.Constraints, depth+2)
		if ob.Eval.Failed {
			w.key(depth+2, "Failed")
			w.b = append(w.b, "true"...)
		}
		w.newline(depth + 1)
		w.b = append(w.b, '}')
		w.key(depth+1, "CumCost")
		w.float(ob.CumCost)
		w.newline(depth)
		w.b = append(w.b, '}')
	},
	same: func(v, kept Observation) bool {
		return v.Iter == kept.Iter && v.Fid == kept.Fid && v.Eval.Failed == kept.Eval.Failed &&
			math.Float64bits(v.Eval.Objective) == math.Float64bits(kept.Eval.Objective) &&
			math.Float64bits(v.CumCost) == math.Float64bits(kept.CumCost) &&
			sameFloats(v.X, kept.X) && sameFloats(v.Eval.Constraints, kept.Eval.Constraints)
	},
	keep: func(v Observation) Observation {
		v.X = keepFloats(v.X)
		v.Eval.Constraints = keepFloats(v.Eval.Constraints)
		return v
	},
}

var degradationOps = listOps[Degradation]{
	enc: func(w *jsonWriter, d Degradation, depth int) {
		w.b = append(w.b, '{')
		w.firstKey(depth+1, "Iter")
		w.int(d.Iter)
		w.key(depth+1, "Stage")
		w.str(string(d.Stage))
		w.key(depth+1, "Output")
		w.int(d.Output)
		w.key(depth+1, "Reason")
		w.str(d.Reason)
		w.newline(depth)
		w.b = append(w.b, '}')
	},
}

var pendingOps = listOps[PendingSuggestion]{
	enc: func(w *jsonWriter, ps PendingSuggestion, depth int) {
		w.b = append(w.b, '{')
		w.firstKey(depth+1, "ID")
		w.str(ps.ID)
		w.key(depth+1, "X")
		w.floats(ps.X, depth+1)
		w.key(depth+1, "Fid")
		w.int(int(ps.Fid))
		w.key(depth+1, "Iter")
		w.int(ps.Iter)
		if len(ps.Fantasy) > 0 {
			w.key(depth+1, "Fantasy")
			w.floats(ps.Fantasy, depth+1)
		}
		w.newline(depth)
		w.b = append(w.b, '}')
	},
}

// sameFloats reports bitwise equality, with nil and empty kept distinct.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// keepFloats copies v, keeping its nil-ness.
func keepFloats(v []float64) []float64 {
	if v == nil {
		return nil
	}
	return append(make([]float64, 0, len(v)), v...)
}

// jsonWriter appends MarshalIndent-formatted JSON with a one-space indent.
// The first unsupported float sets err; later writes carry on harmlessly.
type jsonWriter struct {
	b   []byte
	err error
}

const indentSpaces = "                "

// newline starts a line indented to depth.
func (w *jsonWriter) newline(depth int) {
	w.b = append(w.b, '\n')
	for ; depth > len(indentSpaces); depth -= len(indentSpaces) {
		w.b = append(w.b, indentSpaces...)
	}
	w.b = append(w.b, indentSpaces[:depth]...)
}

// sep starts element i of an array whose elements sit at depth.
func (w *jsonWriter) sep(i, depth int) {
	if i > 0 {
		w.b = append(w.b, ',')
	}
	w.newline(depth)
}

// firstKey and key start an object member at depth; name must need no
// escaping.
func (w *jsonWriter) firstKey(depth int, name string) {
	w.newline(depth)
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) key(depth int, name string) {
	w.b = append(w.b, ',')
	w.firstKey(depth, name)
}

// array writes an n-element array at depth, elem(i) writing element i; an
// empty array is [].
func (w *jsonWriter) array(n, depth int, elem func(i int)) {
	w.b = append(w.b, '[')
	if n == 0 {
		w.b = append(w.b, ']')
		return
	}
	for i := 0; i < n; i++ {
		w.sep(i, depth+1)
		elem(i)
	}
	w.newline(depth)
	w.b = append(w.b, ']')
}

func (w *jsonWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

// float follows encoding/json: 'f' format, or 'e' when |f| < 1e-6 or
// |f| >= 1e21, with a two-digit negative exponent shortened (e-07 → e-7).
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(w.b); n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// str writes plain printable ASCII directly and hands every other string to
// json.Marshal, so HTML escaping, invalid UTF-8 and the line separators stay
// encoding/json's own.
func (w *jsonWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// floats writes a float array at depth (null when nil).
func (w *jsonWriter) floats(v []float64, depth int) {
	if v == nil {
		w.b = append(w.b, "null"...)
		return
	}
	if len(v) == 0 {
		w.b = append(w.b, "[]"...)
		return
	}
	w.b = append(w.b, '[')
	for i, f := range v {
		w.sep(i, depth+1)
		w.float(f)
	}
	w.newline(depth)
	w.b = append(w.b, ']')
}

func (w *jsonWriter) ints(v []int, depth int) {
	w.array(len(v), depth, func(i int) { w.int(v[i]) })
}

// matrix writes a float matrix at depth (null when nil).
func (w *jsonWriter) matrix(m [][]float64, depth int) {
	writeList(w, nil, m, depth, rowOps)
}
