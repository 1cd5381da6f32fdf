package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/problem"
	"repro/internal/testfunc"
)

// marshalOracle is the reference encoding the checkpoint format is pinned to.
func marshalOracle(ck *Checkpoint) ([]byte, error) { return json.MarshalIndent(ck, "", " ") }

// checkEncode compares ck's oracle bytes with Marshal and with the memo
// encoder enc (which carries its memo over from earlier calls): equal bytes,
// or an error from all three.
func checkEncode(t testing.TB, enc *ckEncoder, ck *Checkpoint, label string) {
	t.Helper()
	want, werr := marshalOracle(ck)
	one, oerr := ck.Marshal()
	memo, merr := enc.encode(ck)
	if werr != nil {
		if oerr == nil || merr == nil || one != nil || memo != nil {
			t.Fatalf("%s: MarshalIndent fails (%v) but Marshal gives (%d bytes, %v) and the memo encoder (%d bytes, %v)",
				label, werr, len(one), oerr, len(memo), merr)
		}
		return
	}
	if oerr != nil || merr != nil {
		t.Fatalf("%s: MarshalIndent succeeds but Marshal errs %v, memo encoder errs %v", label, oerr, merr)
	}
	if d := firstDiff(want, one); d >= 0 {
		t.Fatalf("%s: Marshal differs from MarshalIndent at byte %d:\n got …%q…\nwant …%q…", label, d, around(one, d), around(want, d))
	}
	if d := firstDiff(want, memo); d >= 0 {
		t.Fatalf("%s: memo encoder differs from MarshalIndent at byte %d:\n got …%q…\nwant …%q…", label, d, around(memo, d), around(want, d))
	}
}

// firstDiff returns the first offset where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func around(b []byte, i int) []byte {
	lo, hi := max(i-40, 0), min(i+40, len(b))
	if lo > hi {
		return nil
	}
	return b[lo:hi]
}

// TestCheckpointEncodeEngineSessions encodes every snapshot of real batch
// sessions, one-shot and through one memo encoder per session: K=1, K=2 and
// K=3 ladders, pending batches with and without fantasies, penalty
// observations, and a restore that continues through the same encoder.
func TestCheckpointEncodeEngineSessions(t *testing.T) {
	k1 := fastCfg(16)
	k1.Ladder = oneRungLadder(t)
	k2 := fastCfg(7)
	k2.Fantasy = FantasyConstantLiar
	for _, tc := range []struct {
		name string
		p    problem.Problem
		cfg  Config
	}{
		{"K1", testfunc.Forrester(), k1},
		{"K2", testfunc.ConstrainedSynthetic(), k2},
		{"K3", testfunc.Forrester3(), ladderCfg(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := &ckEncoder{memo: true}
			n := 0
			cfg := tc.cfg
			cfg.Checkpointer = func(ck *Checkpoint) error {
				n++
				checkEncode(t, enc, ck, fmt.Sprintf("checkpoint %d", n))
				return nil
			}
			eng, err := NewEngine(tc.p, cfg, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			pendingFantasy, restored := false, false
			for tells := 0; ; tells++ {
				sugs, err := eng.AskBatch(context.Background(), 3)
				if errors.Is(err, ErrBudgetExhausted) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				ck := eng.Snapshot()
				for _, ps := range ck.Pending {
					pendingFantasy = pendingFantasy || ps.Fantasy != nil
				}
				checkEncode(t, enc, ck, fmt.Sprintf("pending snapshot after %d tells", tells))
				s := sugs[len(sugs)-1]
				ev := problem.PenaltyEvaluation(tc.p.NumConstraints())
				if tells%5 != 3 {
					ev = tc.p.Evaluate(s.X, s.Fid)
				}
				if err := eng.TellByID(s.ID, ev); err != nil {
					t.Fatal(err)
				}
				if tells == 12 {
					data, err := eng.Snapshot().Marshal()
					if err != nil {
						t.Fatal(err)
					}
					back, err := UnmarshalCheckpoint(data)
					if err != nil {
						t.Fatal(err)
					}
					if eng, err = RestoreEngine(tc.p, cfg, rand.New(rand.NewSource(6)), back); err != nil {
						t.Fatal(err)
					}
					restored = true
				}
			}
			if !pendingFantasy || !restored || n < 10 {
				t.Fatalf("session too short to cover its cases: fantasies %v, restored %v, %d checkpoints", pendingFantasy, restored, n)
			}
		})
	}
}

// specialFloats sit on encoding/json's format boundaries and at the edges of
// float64.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125, 1e20, 1e-5,
	1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	1e-7, -3.5e-9, 1e-10, 1e-100, 1e100, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.Nextafter(2.2250738585072014e-308, 0), math.MaxFloat64, -math.MaxFloat64,
}

// trickyStrings need escaping in every way encoding/json knows.
var trickyStrings = []string{
	"", "plain text", "warm-hypers", "a<b>&c", `say "hi"`, `back\slash`,
	"ctl\x00\x01\t\n\r\x1f", "del\x7f", "naïve café", "bad\xff\xfeutf8", "sep\u2028\u2029",
	"emoji 😀", "cholesky: not positive definite (jitter 1e-06)",
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return specialFloats[rng.Intn(len(specialFloats))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return []int{-1, math.MaxInt64, math.MinInt64, 1 << 40}[rng.Intn(4)]
	}
	return rng.Intn(200) - 20
}

// randFloats returns a row of up to n floats, or nil or empty.
func randFloats(rng *rand.Rand, n int) []float64 {
	switch rng.Intn(12) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, 1+rng.Intn(n))
	for i := range v {
		v[i] = randFloat(rng)
	}
	return v
}

func randRows(rng *rand.Rand, n, width int) [][]float64 {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return [][]float64{}
	}
	m := make([][]float64, rng.Intn(n+1))
	for i := range m {
		m[i] = randFloats(rng, width)
	}
	return m
}

func randObservation(rng *rand.Rand) Observation {
	return Observation{
		Iter:    randInt(rng),
		X:       randFloats(rng, 4),
		Fid:     problem.Fidelity(rng.Intn(4)),
		Eval:    problem.Evaluation{Objective: randFloat(rng), Constraints: randFloats(rng, 3), Failed: rng.Intn(3) == 0},
		CumCost: randFloat(rng),
	}
}

func randHistory(rng *rand.Rand, n int) []Observation {
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return []Observation{}
	}
	h := make([]Observation, rng.Intn(n+1))
	for i := range h {
		h[i] = randObservation(rng)
	}
	return h
}

// randCheckpoint draws a snapshot of a k-rung run whose every list may also
// be nil or empty.
func randCheckpoint(rng *rand.Rand, k int) *Checkpoint {
	ck := &Checkpoint{
		Version: CheckpointVersion, Problem: trickyStrings[rng.Intn(len(trickyStrings))],
		Dim: randInt(rng), NumConstraints: randInt(rng),
		Budget: randFloat(rng), Gamma: randFloat(rng),
		InitLow: randInt(rng), InitHigh: randInt(rng), Iter: randInt(rng), Cost: randFloat(rng),
		NumLow: randInt(rng), NumHigh: randInt(rng), NumFailed: randInt(rng),
		LowX: randRows(rng, 8, 4), LowY: randRows(rng, 8, 3),
		HighX: randRows(rng, 8, 4), HighY: randRows(rng, 8, 3),
		WarmLow: randRows(rng, 3, 5), WarmHigh: randRows(rng, 3, 5),
		SinceRefit: randInt(rng), History: randHistory(rng, 10),
	}
	switch rng.Intn(3) {
	case 0:
	case 1:
		ck.Degradations = []Degradation{}
	default:
		for i := rng.Intn(4); i >= 0; i-- {
			ck.Degradations = append(ck.Degradations, Degradation{
				Iter: randInt(rng), Stage: DegradeStage(trickyStrings[rng.Intn(len(trickyStrings))]),
				Output: randInt(rng), Reason: trickyStrings[rng.Intn(len(trickyStrings))],
			})
		}
	}
	switch rng.Intn(3) {
	case 0:
	case 1:
		ck.Pending = []PendingSuggestion{}
	default:
		for i := rng.Intn(4); i >= 0; i-- {
			ck.Pending = append(ck.Pending, PendingSuggestion{
				ID: trickyStrings[rng.Intn(len(trickyStrings))], X: randFloats(rng, 4),
				Fid: problem.Fidelity(rng.Intn(3)), Iter: randInt(rng), Fantasy: randFloats(rng, 3),
			})
		}
	}
	switch k {
	case 1:
		ck.Rungs = 1
		ck.LowX, ck.LowY = nil, nil
	case 3:
		ck.Rungs = 3
		ck.RungCosts = randFloats(rng, 3)
		ck.InitMid = randInt(rng)
		if rng.Intn(4) > 0 {
			ck.NumByRung = []int{randInt(rng), randInt(rng), randInt(rng)}
		} else if rng.Intn(2) == 0 {
			ck.NumByRung = []int{}
		}
		for r := rng.Intn(3); r > 0; r-- {
			ck.MidX = append(ck.MidX, randRows(rng, 6, 4))
			ck.MidY = append(ck.MidY, randRows(rng, 6, 3))
		}
		if rng.Intn(6) == 0 {
			ck.MidX, ck.MidY = [][][]float64{}, [][][]float64{}
		}
		for o := rng.Intn(3); o > 0; o-- {
			ck.WarmChain = append(ck.WarmChain, randRows(rng, 3, 5))
		}
	}
	return ck
}

// mutateCheckpoint applies one random edit to ck in place: grow, edit an
// element in place, shrink, or replace a memoized list.
func mutateCheckpoint(rng *rand.Rand, ck *Checkpoint) string {
	sets := []*[][]float64{&ck.LowX, &ck.LowY, &ck.HighX, &ck.HighY}
	for r := range ck.MidX {
		sets = append(sets, &ck.MidX[r], &ck.MidY[r])
	}
	set := sets[rng.Intn(len(sets))]
	switch rng.Intn(7) {
	case 0:
		*set = append(*set, randFloats(rng, 4))
		return "grow set"
	case 1:
		ck.History = append(ck.History, randObservation(rng))
		return "grow history"
	case 2:
		if len(*set) == 0 {
			return "no-op"
		}
		row := (*set)[rng.Intn(len(*set))]
		if len(row) == 0 {
			(*set)[rng.Intn(len(*set))] = randFloats(rng, 4)
			return "replace row"
		}
		row[rng.Intn(len(row))] = randFloat(rng)
		return "edit row in place"
	case 3:
		if len(ck.History) == 0 {
			return "no-op"
		}
		ob := &ck.History[rng.Intn(len(ck.History))]
		switch rng.Intn(4) {
		case 0:
			ob.Eval.Failed = !ob.Eval.Failed
		case 1:
			ob.CumCost = math.Nextafter(ob.CumCost, 0)
		case 2:
			if len(ob.X) > 0 {
				ob.X[0] = math.Copysign(0, -1)
			} else if ob.X == nil {
				ob.X = []float64{}
			} else {
				ob.X = nil
			}
		default:
			ob.Iter++
		}
		return "edit history in place"
	case 4:
		*set = (*set)[:rng.Intn(len(*set)+1)]
		return "shrink set"
	case 5:
		ck.History = ck.History[:rng.Intn(len(ck.History)+1)]
		return "shrink history"
	default:
		*set = randRows(rng, 6, 4)
		return "replace set"
	}
}

// TestCheckpointEncodeMatchesMarshalIndent is the encoder's property test:
// random K=1, K=2 and K=3 snapshots, one-shot, then evolving sequences
// through one memo encoder, which also restore through UnmarshalCheckpoint
// and continue.
func TestCheckpointEncodeMatchesMarshalIndent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		k := 1 + trial%3
		ck := randCheckpoint(rng, k)
		enc := &ckEncoder{memo: true}
		checkEncode(t, enc, ck, fmt.Sprintf("trial %d (K=%d)", trial, k))
		for step := 0; step < 25; step++ {
			op := mutateCheckpoint(rng, ck)
			if rng.Intn(10) == 0 {
				data, err := ck.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if ck, err = UnmarshalCheckpoint(data); err != nil {
					t.Fatal(err)
				}
				op += " after restore"
			}
			checkEncode(t, enc, ck, fmt.Sprintf("trial %d (K=%d) step %d: %s", trial, k, step, op))
		}
	}
}

// TestCheckpointEncodeRefusesNonFinite: a NaN or infinity anywhere makes both
// encoders fail, and the memo encoder recovers on the next snapshot.
func TestCheckpointEncodeRefusesNonFinite(t *testing.T) {
	base := func() *Checkpoint {
		return &Checkpoint{
			Version: CheckpointVersion, Problem: "p",
			LowX: [][]float64{{1}, {2}}, HighX: [][]float64{{3}},
			History:   []Observation{{X: []float64{1}, Eval: problem.Evaluation{Constraints: []float64{-1}}}},
			Pending:   []PendingSuggestion{{ID: "s", X: []float64{1}, Fantasy: []float64{0}}},
			Rungs:     3,
			RungCosts: []float64{0.1, 0.5, 1},
			MidX:      [][][]float64{{{1}}},
			WarmChain: [][][]float64{{{1, 2}}},
		}
	}
	enc := &ckEncoder{memo: true}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, poison := range map[string]func(ck *Checkpoint){
			"Budget":     func(ck *Checkpoint) { ck.Budget = bad },
			"LowX":       func(ck *Checkpoint) { ck.LowX[1][0] = bad },
			"MidX":       func(ck *Checkpoint) { ck.MidX[0][0][0] = bad },
			"History":    func(ck *Checkpoint) { ck.History[0].Eval.Constraints[0] = bad },
			"CumCost":    func(ck *Checkpoint) { ck.History[0].CumCost = bad },
			"Fantasy":    func(ck *Checkpoint) { ck.Pending[0].Fantasy[0] = bad },
			"RungCosts":  func(ck *Checkpoint) { ck.RungCosts[2] = bad },
			"WarmChain":  func(ck *Checkpoint) { ck.WarmChain[0][0][1] = bad },
			"HighXAfter": func(ck *Checkpoint) { ck.HighX = append(ck.HighX, []float64{bad}) },
		} {
			checkEncode(t, enc, base(), "clean before "+name)
			ck := base()
			poison(ck)
			if _, err := marshalOracle(ck); err == nil {
				t.Fatalf("%s=%v: MarshalIndent accepted it", name, bad)
			}
			checkEncode(t, enc, ck, fmt.Sprintf("%s=%v", name, bad))
			checkEncode(t, enc, base(), "clean after "+name)
		}
	}
}
