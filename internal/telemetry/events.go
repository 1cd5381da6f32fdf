package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event type tags carried by Event.Type.
const (
	EventRun       = "run"       // run metadata, emitted once at engine creation
	EventIteration = "iteration" // one Algorithm 1 iteration (or one init point)
	EventSpan      = "span"      // one completed trace span
	EventFault     = "fault"     // one robust-layer fault event
)

// RunEvent records run-level metadata so an event log is self-describing.
type RunEvent struct {
	Problem        string  `json:"problem"`
	Dim            int     `json:"dim"`
	NumConstraints int     `json:"num_constraints"`
	Budget         float64 `json:"budget"`
	Gamma          float64 `json:"gamma"`
	InitLow        int     `json:"init_low"`
	InitHigh       int     `json:"init_high"`
	Resumed        bool    `json:"resumed,omitempty"`

	// Fidelity-ladder metadata (K>2 runs only; absent on classic two-fidelity
	// runs so their event logs are byte-identical to earlier releases).
	// Rungs is the rung count K, RungCosts the per-rung relative costs
	// (RungCosts[K-1] == 1), InitMid the LHS initialization size per
	// intermediate rung.
	Rungs     int       `json:"rungs,omitempty"`
	RungCosts []float64 `json:"rung_costs,omitempty"`
	InitMid   int       `json:"init_mid,omitempty"`
}

// IterationEvent records the decision variables of one optimizer iteration —
// everything the paper treats as first-class: the §3.4 fidelity-selection
// comparison (σ²_l vs (1+Nc)·γ, eqs. 11–12), the wEI acquisition values at
// the argmax (eqs. 5–6), the §4.2 bootstrap switch (eq. 13), incumbents
// τ_l/τ_h, surrogate-fit health (NLML, restarts, degradation rung), and MSP
// start/convergence counts. Initialization design points appear with
// Iter == -1 and only the evaluation-outcome fields populated.
//
// All decision fields are captured from values the optimizer computed anyway;
// recording them never adds floating-point work, which is what keeps a
// telemetry-on trajectory bit-identical to a telemetry-off one.
type IterationEvent struct {
	Iter int `json:"iter"`

	// Fidelity decision (§3.4): evaluate HIGH iff Sigma2Max < Threshold,
	// where Sigma2Max is the largest standardized low-fidelity posterior
	// variance across the 1+Nc outputs at the query point and
	// Threshold = (1+Nc)·Gamma.
	Fidelity   string  `json:"fidelity"`
	Sigma2Max  float64 `json:"sigma2_max,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	Gamma      float64 `json:"gamma,omitempty"`
	Nc         int     `json:"nc"`
	HasSigma2  bool    `json:"has_sigma2,omitempty"`
	ForcedHigh bool    `json:"forced_high,omitempty"`
	// DuplicateFallback marks iterations whose acquisition argmax coincided
	// with an already-evaluated point and was replaced by a random
	// exploration point.
	DuplicateFallback bool `json:"duplicate_fallback,omitempty"`

	// Fidelity-ladder decision record (K>2 runs only — absent on classic
	// two-fidelity runs). Rung is the selected ladder rung (0 = cheapest,
	// K-1 = target); RungVars holds the standardized chain posterior variance
	// per sub-target rung at the query point, the inputs of the generalized
	// §3.4 cost-weighted selection.
	Rung     int       `json:"rung,omitempty"`
	RungVars []float64 `json:"rung_vars,omitempty"`

	// Acquisition values at the argmax. Bootstrap marks the §4.2 first-
	// feasible mode where the (negated) predicted-feasibility objective
	// replaces wEI on the fused level; BootstrapLow the same on the low
	// level.
	AcqLow       float64 `json:"acq_low,omitempty"`
	AcqHigh      float64 `json:"acq_high,omitempty"`
	Bootstrap    bool    `json:"bootstrap,omitempty"`
	BootstrapLow bool    `json:"bootstrap_low,omitempty"`

	// Incumbents (best feasible objective per fidelity, when one exists).
	HasTauLow  bool    `json:"has_tau_low,omitempty"`
	TauLow     float64 `json:"tau_low,omitempty"`
	HasTauHigh bool    `json:"has_tau_high,omitempty"`
	TauHigh    float64 `json:"tau_high,omitempty"`

	// Surrogate-fit health. Degrade is the worst degradation rung taken this
	// iteration ("" healthy, else "warm-hypers" | "low-fidelity-only" |
	// "random-exploration"); NLML holds per-output negative log marginal
	// likelihoods (low then fused-high levels), FitRestarts/FitDiverged
	// aggregate L-BFGS restart bookkeeping across all fitted models.
	Degrade     string    `json:"degrade,omitempty"`
	NLMLLow     []float64 `json:"nlml_low,omitempty"`
	NLMLHigh    []float64 `json:"nlml_high,omitempty"`
	FitRestarts int       `json:"fit_restarts,omitempty"`
	FitDiverged int       `json:"fit_diverged,omitempty"`

	// Incremental-surrogate bookkeeping (core's fit-skip schedule):
	// FitSkipped marks iterations that extended the cached models with
	// rank-1 updates instead of refitting (Rank1Updates counts the per-model
	// factor extensions applied, fantasy rows included), SinceRefit counts
	// proposals since the last hyperparameter re-optimization, and LowRank
	// marks iterations whose surrogates use the inducing-point approximation.
	FitSkipped   bool `json:"fit_skipped,omitempty"`
	Rank1Updates int  `json:"rank1_updates,omitempty"`
	SinceRefit   int  `json:"since_refit,omitempty"`
	LowRank      bool `json:"low_rank,omitempty"`

	// MSP bookkeeping (§4.1): starts run and locally-diverged starts for the
	// low- and high-fidelity acquisition maximizations.
	MSPStartsLow    int `json:"msp_starts_low,omitempty"`
	MSPDivergedLow  int `json:"msp_diverged_low,omitempty"`
	MSPStartsHigh   int `json:"msp_starts_high,omitempty"`
	MSPDivergedHigh int `json:"msp_diverged_high,omitempty"`

	// Evaluation outcome (filled when the observation is told back).
	X           []float64 `json:"x,omitempty"`
	Objective   float64   `json:"objective"`
	Constraints []float64 `json:"constraints,omitempty"`
	Failed      bool      `json:"failed,omitempty"`
	CumCost     float64   `json:"cum_cost"`

	// Robust-layer cumulative counters at the time of the observation (only
	// when the problem carries a robust.FaultLog).
	RetriesCum  int `json:"retries_cum,omitempty"`
	FailuresCum int `json:"failures_cum,omitempty"`

	// Wall-clock timings (milliseconds). Non-deterministic by nature; the
	// oracle test excludes them from trajectory comparison.
	FitMs float64 `json:"fit_ms,omitempty"`
	AcqMs float64 `json:"acq_ms,omitempty"`
}

// SpanEvent is one completed trace span.
type SpanEvent struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Trace is the 128-bit trace ID as 32 lowercase hex digits, shared by
	// every span in one request tree across all processes it touched.
	Trace string `json:"trace,omitempty"`
	// Service names the emitting process ("gateway", "mfbod/ra", ...).
	Service string `json:"svc,omitempty"`
	Name    string `json:"name"`
	// StartUnixNs is wall-clock; DurNs comes from the monotonic clock.
	StartUnixNs int64              `json:"start_ns"`
	DurNs       int64              `json:"dur_ns"`
	Attrs       map[string]float64 `json:"attrs,omitempty"`
}

// FaultEvent is one robust-layer retry or terminal evaluation failure.
type FaultEvent struct {
	Fidelity string `json:"fidelity"`
	Kind     string `json:"kind"` // "retry" | "failure"
	Attempt  int    `json:"attempt,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Event is the tagged envelope written to sinks. Exactly one payload pointer
// is non-nil, matching Type.
type Event struct {
	Type string `json:"type"`
	// TimeUnixMs is the wall-clock emission time.
	TimeUnixMs int64           `json:"t_ms,omitempty"`
	Run        *RunEvent       `json:"run,omitempty"`
	Iteration  *IterationEvent `json:"iteration,omitempty"`
	Span       *SpanEvent      `json:"span,omitempty"`
	Fault      *FaultEvent     `json:"fault,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent Emit.
type Sink interface {
	Emit(Event)
}

// Ring is a bounded in-memory event buffer: the newest Cap events are kept,
// older ones are overwritten (Dropped counts the overwritten ones). It backs
// the live-introspection endpoints.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	full    bool
	dropped uint64
}

// NewRing returns a ring keeping the newest capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the buffered events oldest-first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped reports how many events were overwritten.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// JSONL streams events as JSON lines to an io.Writer (buffered). Close
// flushes; OpenJSONL also closes the underlying file.
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONL wraps w in a line-buffered JSONL sink.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: bufio.NewWriter(w)} }

// OpenJSONL creates (truncating) path and streams events into it.
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open event log: %w", err)
	}
	j := NewJSONL(f)
	j.c = f
	return j, nil
}

// Emit implements Sink. JSON has no NaN or ±Inf — a low-fidelity-only
// iteration with no high-fidelity incumbent records AcqHigh = +Inf — so an
// event holding one is written with those fields left out (see
// marshalFinite); every other event is written exactly as json.Marshal
// encodes it. A write failure is sticky (the buffered writer keeps it) and
// the first error is reported by Close — event logging must never fail an
// optimization run.
func (j *JSONL) Emit(ev Event) {
	if j == nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		data, err = marshalFinite(ev)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err == nil {
		_, err = j.w.Write(append(data, '\n'))
	}
	if err != nil && j.err == nil {
		j.err = err
	}
}

// Flush drains the buffer.
func (j *JSONL) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Close flushes and closes the underlying file (when opened by OpenJSONL),
// returning the first error seen over the sink's lifetime.
func (j *JSONL) Close() error {
	if j == nil {
		return nil
	}
	err := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// ReadJSONL parses an event log produced by a JSONL sink. Blank lines are
// skipped; a malformed line fails with its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("telemetry: event log line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadJSONLFile reads an event-log file.
func ReadJSONLFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// multi fans one Emit out to several sinks.
type multi struct{ sinks []Sink }

func (m multi) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// Multi returns a sink broadcasting to every non-nil sink (nil when none).
func Multi(sinks ...Sink) Sink {
	var keep []Sink
	for _, s := range sinks {
		switch v := s.(type) {
		case nil:
		case *Ring:
			if v != nil {
				keep = append(keep, v)
			}
		case *JSONL:
			if v != nil {
				keep = append(keep, v)
			}
		default:
			keep = append(keep, s)
		}
	}
	switch len(keep) {
	case 0:
		return nil
	case 1:
		return keep[0]
	}
	return multi{sinks: keep}
}

func nowUnixMs() int64 { return time.Now().UnixMilli() }
