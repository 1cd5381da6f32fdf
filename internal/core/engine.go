package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Suggestion is one query proposed by the optimizer: evaluate X at fidelity
// Fid and feed the outcome back through Engine.Tell (or Engine.TellByID,
// keyed on ID). Iter is the adaptive iteration the suggestion belongs to;
// initialization-design points carry Iter == -1.
//
// ID is deterministic ("init-low-3", "iter-12"): two engines running the
// same trajectory assign identical IDs, and a restored engine replays the
// IDs of its snapshot, so distributed evaluators holding references across
// a server restart stay consistent.
type Suggestion struct {
	ID   string
	X    []float64
	Fid  problem.Fidelity
	Iter int
}

// pendingSug is one outstanding (asked-but-untold) suggestion together with
// the fantasy outputs that stand in for its observation while later batch
// slots are proposed. fantasy is nil for initialization points and for
// degraded (random-exploration) proposals.
type pendingSug struct {
	sug     Suggestion
	fantasy []float64
	// ev is the slot's in-flight iteration event (telemetry on only): the
	// decision fields recorded when it was proposed, completed and emitted
	// when its observation is told — whatever order the batch returns in.
	ev *telemetry.IterationEvent
}

// Engine is the explicit ask/tell state machine behind Optimize: the same
// fit → acquire → fidelity-select pipeline of Algorithm 1, but with the
// "run the simulation" step inverted out of the loop so that external
// evaluators (HTTP clients, job schedulers, distributed SPICE farms) can
// drive it.
//
// The sequential protocol is strict alternation:
//
//	for {
//		s, err := eng.Ask(ctx)        // errors.Is(err, ErrBudgetExhausted) → done
//		ev := <evaluate s.X at s.Fid> // anywhere, any way
//		eng.Tell(s.X, s.Fid, ev)
//	}
//	res, err := eng.Result()
//
// Ask is idempotent: until the pending suggestion is told, repeated Asks
// return the same Suggestion without recomputing (and without consuming
// randomness), so a polling client that crashes between ask and tell can
// simply ask again. Tell validates that the observation matches an
// outstanding suggestion (ErrTellMismatch otherwise) — the trajectory of an
// engine-driven run is bit-identical to the in-process Optimize under the
// same seed.
//
// AskBatch generalizes Ask to q concurrently-outstanding suggestions for
// parallel evaluation farms (see its doc comment); observations then return
// out of order through TellByID. AskBatch with q=1 degenerates exactly to
// the sequential protocol.
//
// Engine is not safe for concurrent use; callers that share one across
// goroutines (e.g. the session layer in internal/session) must serialize
// access.
type Engine struct {
	st *state

	// Remaining (not yet handed out) initialization design points per ladder
	// rung, issued cheapest rung first — for classic two-fidelity problems
	// that is low first, then high, the same order OptimizeCtx evaluates
	// them. initNext[r] indexes the next design point within rung r's full
	// design, for deterministic suggestion IDs across restores.
	initQ    [][][]float64
	initNext []int
	// initDone records that the post-initialization checkpoint was taken
	// and the engine is in (or past) the adaptive phase.
	initDone bool

	// pending is the ordered set of outstanding suggestions awaiting their
	// Tell (oldest first). During initialization it holds only design
	// points; afterwards only adaptive slots.
	pending []*pendingSug

	interrupted bool
	// termErr, once set, makes the engine terminal: Ask keeps returning it.
	// ErrBudgetExhausted / ErrInterrupted are the normal terminations.
	termErr error
	// ckptDirty records that the latest ingested observation is not yet
	// durably checkpointed (the checkpoint write failed). A dirty engine
	// keeps accepting Tells but refuses to hand out work — Ask/AskBatch
	// first retry the flush — so transient storage faults stall the run
	// instead of killing it, and a crash can never lose more than the
	// observations whose checkpoint writes errored (which were never
	// positively acknowledged to their reporters).
	ckptDirty bool
}

// NewEngine validates cfg and builds a fresh engine for p. The
// initialization designs are drawn from rng immediately, cheapest rung first
// (for two-fidelity problems: low design, then high), so the RNG consumption
// matches OptimizeCtx exactly.
func NewEngine(p problem.Problem, cfg Config, rng *rand.Rand) (*Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	st, err := newState(p, cfg, rng)
	if err != nil {
		return nil, err
	}
	st.emitRun(false)
	e := &Engine{st: st}
	sizes := st.initSizes()
	e.initQ = make([][][]float64, len(sizes))
	e.initNext = make([]int, len(sizes))
	for r, n := range sizes {
		e.initQ[r] = stats.LatinHypercube(rng, st.lo, st.hi, n)
	}
	return e, nil
}

// initSizes returns the per-rung initialization design sizes, rung order:
// InitLow at rung 0, InitMid per intermediate rung, InitHigh at the target.
func (st *state) initSizes() []int {
	sizes := make([]int, st.ladder.Rungs())
	sizes[0] = st.cfg.InitLow
	for r := 1; r < st.ladder.Target(); r++ {
		sizes[r] = st.cfg.InitMid
	}
	sizes[st.ladder.Target()] = st.cfg.InitHigh
	return sizes
}

// initID names rung r's idx-th initialization design point. The two-fidelity
// vocabulary is preserved at the ladder extremes so restored engines replay
// historical suggestion IDs verbatim; a one-rung design is "init-high".
func (st *state) initID(r, idx int) string {
	switch {
	case r == st.ladder.Target():
		return fmt.Sprintf("init-high-%d", idx)
	case r == 0:
		return fmt.Sprintf("init-low-%d", idx)
	default:
		return fmt.Sprintf("init-mid%d-%d", r, idx)
	}
}

// emitRun publishes the run-metadata event that makes an event log
// self-describing. No-op when telemetry is off.
func (st *state) emitRun(resumed bool) {
	if st.telem == nil {
		return
	}
	ev := &telemetry.RunEvent{
		Problem:        st.p.Name(),
		Dim:            st.d,
		NumConstraints: st.nc,
		Budget:         st.cfg.Budget,
		Gamma:          st.cfg.Gamma,
		InitLow:        st.cfg.InitLow,
		InitHigh:       st.cfg.InitHigh,
		Resumed:        resumed,
	}
	if st.ladder.Rungs() > 2 {
		ev.Rungs = st.ladder.Rungs()
		ev.RungCosts = st.ladder.Costs()
		ev.InitMid = st.cfg.InitMid
	}
	st.telem.EmitRun(ev)
}

// RestoreEngine rebuilds an engine from a Checkpoint: datasets, history,
// spent budget and warm hyperparameters are restored exactly, and the next
// Ask picks up where the snapshot left off. The caller supplies the same
// problem and an equivalent Config (scalar fields are validated against the
// snapshot — mismatches return ErrResumeMismatch); rng seeds the
// continuation.
//
// Snapshots taken mid-initialization are supported: the initialization
// designs are redrawn from rng and the already-evaluated prefix (derived
// from the history, failures included) is skipped, so restoring with the
// original seed continues the exact original design.
//
// Snapshots taken mid-batch (with asked-but-untold suggestions) round-trip
// the full pending set: the restored engine replays every outstanding
// suggestion verbatim — same IDs, points, fidelities and fantasy values —
// without recomputing or consuming randomness, so distributed evaluators
// still holding those suggestions can Tell them after the restart.
func RestoreEngine(p problem.Problem, cfg Config, rng *rand.Rand, ck *Checkpoint) (*Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := validateResume(p, &cfg, ck); err != nil {
		return nil, err
	}
	st, err := newState(p, cfg, rng)
	if err != nil {
		return nil, err
	}
	st.iter = ck.Iter
	st.cost = ck.Cost
	for r := range st.data {
		X, Y := ck.rungData(r, st.ladder.Target())
		st.data[r] = &dataset{X: cloneMatrix(X), Y: cloneMatrix(Y)}
	}
	st.restoreWarm(ck)
	st.sinceRefit = ck.SinceRefit
	st.res.NumLow = ck.NumLow
	st.res.NumHigh = ck.NumHigh
	st.res.NumFailed = ck.NumFailed
	if st.ladder.Rungs() > 2 {
		st.res.NumByRung = append([]int(nil), ck.NumByRung...)
	}
	st.res.History = make([]Observation, len(ck.History))
	for i, ob := range ck.History {
		ob.X = append([]float64(nil), ob.X...)
		ob.Eval.Constraints = append([]float64(nil), ob.Eval.Constraints...)
		st.res.History[i] = ob
	}
	st.res.Degradations = append([]Degradation(nil), ck.Degradations...)
	st.emitRun(true)

	e := &Engine{st: st}
	// Replay the outstanding pending set verbatim (deep-copied): suggestions
	// asked before the snapshot stay askable and tellable after it.
	pend := make([]int, st.ladder.Rungs())
	pendInit := 0
	for _, ps := range ck.Pending {
		e.pending = append(e.pending, &pendingSug{
			sug: Suggestion{
				ID:   ps.ID,
				X:    append([]float64(nil), ps.X...),
				Fid:  ps.Fid,
				Iter: ps.Iter,
			},
			fantasy: append([]float64(nil), ps.Fantasy...),
		})
		if ps.Iter < 0 {
			pend[st.rungOf(ps.Fid)]++
			pendInit++
		}
	}
	// Initialization progress is derived from the restored history (every
	// initialization observation was recorded there, failures included) plus
	// the replayed pending set (handed out but not yet told).
	done := make([]int, st.ladder.Rungs())
	for _, ob := range st.res.History {
		if ob.Iter == -1 {
			done[st.rungOf(ob.Fid)]++
		}
	}
	sizes := st.initSizes()
	e.initNext = make([]int, len(sizes))
	e.initQ = make([][][]float64, len(sizes))
	allOut := true
	for r := range sizes {
		e.initNext[r] = done[r] + pend[r]
		if e.initNext[r] < sizes[r] {
			allOut = false
		}
	}
	if allOut {
		// Every design point was handed out: no RNG consumption on restore,
		// matching the historical Resume trajectory exactly. The phase is
		// closed only once the outstanding ones are told.
		if pendInit == 0 {
			e.initDone = true
		}
		return e, nil
	}
	for r, n := range sizes {
		design := stats.LatinHypercube(rng, st.lo, st.hi, n)
		if e.initNext[r] < len(design) {
			e.initQ[r] = design[e.initNext[r]:]
		}
	}
	return e, nil
}

// finishInit takes the post-initialization checkpoint and flips the engine
// into the adaptive phase.
func (e *Engine) finishInit() error {
	return e.finishInitIn(nil)
}

// finishInitIn is finishInit with the checkpoint write attributed to span's
// trace.
func (e *Engine) finishInitIn(span *telemetry.Span) error {
	e.initDone = true
	return e.checkpointDurableIn(span)
}

// checkpointDurable takes a checkpoint and tracks durability: on failure the
// engine is marked dirty (not terminal) and the fault is returned so the
// caller can refuse to acknowledge the observation it just ingested.
func (e *Engine) checkpointDurable() error {
	if err := e.checkpoint(); err != nil {
		e.ckptDirty = true
		return err
	}
	e.ckptDirty = false
	return nil
}

// checkpointDurableIn is checkpointDurable with the write wrapped in a
// storage.put child span, so checkpoint serialization + fsync latency
// attributes to the request that paid for it (nil-safe: a nil or unsampled
// parent costs nothing).
func (e *Engine) checkpointDurableIn(parent *telemetry.Span) error {
	sp := parent.Child("storage.put")
	err := e.checkpointDurable()
	if err != nil {
		sp.Attr("error", 1)
	}
	sp.End()
	return err
}

// flushCheckpoint retries a failed checkpoint before any new work is handed
// out. No-op when the engine is clean.
func (e *Engine) flushCheckpoint() error {
	if !e.ckptDirty {
		return nil
	}
	return e.checkpointDurable()
}

// adaptiveOutstanding counts pending adaptive (non-initialization) slots.
func (e *Engine) adaptiveOutstanding() int {
	n := 0
	for _, p := range e.pending {
		if p.sug.Iter >= 0 {
			n++
		}
	}
	return n
}

// outstandingCost is the budget already committed to the pending set: each
// outstanding suggestion will be charged on Tell, so batch top-up must count
// it against the budget before issuing more work.
func (e *Engine) outstandingCost() float64 {
	var c float64
	for _, p := range e.pending {
		rung := e.st.rungOf(p.sug.Fid)
		if rung == e.st.ladder.Target() {
			c++
		} else {
			c += e.st.ladder.Cost(rung)
		}
	}
	return c
}

// Ask returns the next query. Terminal conditions surface as errors:
// ErrBudgetExhausted when the budget (or Config.MaxIterations) is spent,
// ErrInterrupted when ctx was cancelled, and the underlying fault when a
// checkpoint write failed — classify with errors.Is. A non-terminal Ask
// either replays the oldest pending suggestion or computes a new one
// (running the full surrogate-fit/acquisition pipeline, which can take a
// while).
//
// ctx only gates the decision to keep going; it is not threaded into the
// surrogate fits. Long-running services should pass context.Background()
// and handle their own request deadlines, because a cancelled ctx
// terminally interrupts the engine (matching OptimizeCtx semantics).
func (e *Engine) Ask(ctx context.Context) (Suggestion, error) {
	if e.termErr != nil {
		return Suggestion{}, e.termErr
	}
	if err := e.flushCheckpoint(); err != nil {
		return Suggestion{}, err
	}
	if len(e.pending) > 0 {
		return cloneSuggestion(e.pending[0].sug), nil
	}
	if err := e.fill(ctx, 1); err != nil {
		return Suggestion{}, err
	}
	return cloneSuggestion(e.pending[0].sug), nil
}

// AskBatch tops the outstanding set up to q concurrently-pending suggestions
// and returns the full set (oldest first) — the batch face of the engine for
// parallel evaluation fleets. Additional slots beyond the first are proposed
// against fantasy-augmented surrogates: each outstanding adaptive suggestion
// contributes a synthetic observation (Config.Fantasy selects the
// kriging-believer posterior mean or a constant-liar pessimistic value), the
// models are refitted with those fantasies included, and the §3.4 fidelity
// criterion is applied per fantasy point — so slot j avoids re-proposing
// slot i's neighborhood without waiting for its simulation. Fantasies never
// touch the real training sets: they are retracted automatically as real
// observations arrive through Tell/TellByID.
//
// AskBatch is idempotent and incremental: already-outstanding suggestions
// are returned as-is (never recomputed), and calling it with q=1 is
// bit-identical to the sequential Ask protocol — no fantasy work happens
// with a single slot. When the remaining budget or Config.MaxIterations
// caps the batch below q, the set is simply smaller; once no suggestions
// are outstanding and none can be created, the terminal error is returned
// exactly like Ask.
func (e *Engine) AskBatch(ctx context.Context, q int) ([]Suggestion, error) {
	if q < 1 {
		q = 1
	}
	if e.termErr != nil {
		return nil, e.termErr
	}
	if err := e.flushCheckpoint(); err != nil {
		return nil, err
	}
	if err := e.fill(ctx, q); err != nil {
		return nil, err
	}
	out := make([]Suggestion, len(e.pending))
	for i, p := range e.pending {
		out[i] = cloneSuggestion(p.sug)
	}
	return out, nil
}

func cloneSuggestion(s Suggestion) Suggestion {
	s.X = append([]float64(nil), s.X...)
	return s
}

// fill grows the pending set to q outstanding suggestions (or as many as
// the phase/budget admits). With an empty pending set it reproduces the
// sequential Ask decision sequence exactly; it returns an error only when
// the engine is terminal AND nothing is outstanding.
func (e *Engine) fill(ctx context.Context, q int) error {
	if !e.initDone {
		if ctx.Err() != nil && len(e.pending) == 0 {
			// Match OptimizeCtx: skip the remaining initialization
			// evaluations, still take the post-init checkpoint, and
			// report interruption.
			for r := range e.initQ {
				e.initQ[r] = nil
			}
			e.interrupted = true
			if err := e.finishInit(); err != nil {
				return err
			}
			e.termErr = ErrInterrupted
			return e.termErr
		}
		for len(e.pending) < q && e.initRemaining() > 0 {
			for r := range e.initQ {
				if len(e.initQ[r]) > 0 {
					e.pushInit(r)
					break
				}
			}
		}
		if len(e.pending) > 0 {
			// Design points outstanding (or just issued): the adaptive
			// phase cannot start until all of them are told.
			return nil
		}
		// Degenerate designs (both queues empty before any Tell): close the
		// initialization phase and fall through to the adaptive one.
		if err := e.finishInit(); err != nil {
			return err
		}
	}
	// Adaptive-phase termination checks, in the same order as the loop
	// condition of Algorithm 1's driver. For batch slots beyond the first,
	// hitting a cap merely stops the top-up: outstanding work stays valid.
	cfg := &e.st.cfg
	for len(e.pending) < q {
		// Gate on committed cost (spent plus outstanding leases): a batch may
		// overrun the budget by at most one slot's cost, the same bound the
		// sequential loop has for its single in-flight evaluation.
		if e.st.cost+e.outstandingCost() >= cfg.Budget {
			if len(e.pending) == 0 {
				e.termErr = ErrBudgetExhausted
				return e.termErr
			}
			return nil
		}
		if cfg.MaxIterations > 0 && e.st.iter+e.adaptiveOutstanding() >= cfg.MaxIterations {
			if len(e.pending) == 0 {
				e.termErr = fmt.Errorf("%w (iteration cap %d reached)", ErrBudgetExhausted, cfg.MaxIterations)
				return e.termErr
			}
			return nil
		}
		if ctx.Err() != nil {
			if len(e.pending) == 0 {
				e.interrupted = true
				e.termErr = ErrInterrupted
				return e.termErr
			}
			return nil
		}
		e.proposeSlot(ctx, q > 1)
	}
	return nil
}

// initRemaining counts the design points not yet handed out, across rungs.
func (e *Engine) initRemaining() int {
	n := 0
	for _, q := range e.initQ {
		n += len(q)
	}
	return n
}

// pushInit hands out the next initialization design point at rung r.
func (e *Engine) pushInit(r int) {
	x := e.initQ[r][0]
	e.initQ[r] = e.initQ[r][1:]
	id := e.st.initID(r, e.initNext[r])
	e.initNext[r]++
	e.pending = append(e.pending, &pendingSug{
		sug: Suggestion{ID: id, X: append([]float64(nil), x...), Fid: e.st.fidOf(r), Iter: -1},
	})
}

// proposeSlot computes one new adaptive suggestion and appends it to the
// pending set. In batch mode the surrogates are fitted against the training
// sets temporarily augmented with the outstanding slots' fantasy
// observations (constant-liar / kriging-believer), which are retracted
// before returning — the real datasets never see a fantasy row. The
// engine.ask span continues the trace carried by ctx when a request span is
// present (the service path), otherwise it roots a locally sampled trace.
func (e *Engine) proposeSlot(ctx context.Context, batch bool) {
	st := e.st
	iter := st.iter + e.adaptiveOutstanding()
	var span *telemetry.Span
	var t0 time.Time
	if st.telem != nil {
		span = st.telem.StartSpanIn(ctx, "engine.ask")
		span.Attr("iter", float64(iter))
		t0 = time.Now()
	}
	sizes := st.datasetSizes()
	if batch {
		for _, p := range e.pending {
			if p.sug.Iter < 0 || p.fantasy == nil {
				continue
			}
			ds := st.ds(st.rungOf(p.sug.Fid))
			// Rows are never mutated downstream, so sharing storage with the
			// pending suggestion is safe; the append is undone below.
			ds.X = append(ds.X, p.sug.X)
			ds.Y = append(ds.Y, p.fantasy)
		}
	}
	x, fid, fantasy := st.proposeLadder(iter, span, batch)
	for r := range sizes {
		ds := st.ds(r)
		ds.X, ds.Y = ds.X[:sizes[r]], ds.Y[:sizes[r]]
	}
	st.retractLadderCache(sizes)
	ev := st.ev
	st.ev = nil
	if st.telem != nil {
		span.End()
		if st.met != nil {
			st.met.askSeconds.Observe(time.Since(t0).Seconds())
		}
	}
	e.pending = append(e.pending, &pendingSug{
		sug:     Suggestion{ID: fmt.Sprintf("iter-%d", iter), X: x, Fid: fid, Iter: iter},
		fantasy: fantasy,
		ev:      ev,
	})
}

// Tell ingests the outcome of an outstanding suggestion identified by its
// exact (x, fid) pair: the evaluation is routed through the same sanitation
// as the in-process loop (non-finite or explicitly Failed outcomes are
// charged but excluded from surrogate training), the budget is charged, the
// history extended, and a checkpoint is taken — after every observation,
// initialization included, so an acknowledged Tell is always durable. A
// failed checkpoint write is returned (the observation is ingested but not
// yet durable) without making the engine terminal: Ask refuses to hand out
// further work until a retried flush succeeds. x and fid must match an
// outstanding suggestion exactly (ErrTellMismatch); a Tell without any
// pending Ask returns ErrNoPendingAsk. Batch consumers should prefer
// TellByID, which is unambiguous under concurrent outstanding suggestions.
func (e *Engine) Tell(x []float64, fid problem.Fidelity, ev problem.Evaluation) error {
	return e.TellCtx(context.Background(), x, fid, ev)
}

// TellCtx is Tell with a context: when ctx carries a request span (the
// service path), the engine.tell and storage.put spans join that trace.
// Cancellation is not consulted — an ingested observation is never rolled
// back.
func (e *Engine) TellCtx(ctx context.Context, x []float64, fid problem.Fidelity, ev problem.Evaluation) error {
	if len(e.pending) == 0 {
		if e.termErr != nil {
			return e.termErr
		}
		return ErrNoPendingAsk
	}
	for i, p := range e.pending {
		if p.sug.Fid == fid && equalPoint(p.sug.X, x) {
			return e.tellAt(ctx, i, ev)
		}
	}
	// No outstanding suggestion matches: report the mismatch against the
	// oldest pending one, preserving the sequential protocol's diagnostics.
	sug := e.pending[0].sug
	if fid != sug.Fid || len(x) != len(sug.X) {
		return fmt.Errorf("%w: got fidelity %v dim %d, want %v dim %d",
			ErrTellMismatch, fid, len(x), sug.Fid, len(sug.X))
	}
	for i := range x {
		if x[i] != sug.X[i] {
			return fmt.Errorf("%w: coordinate %d is %v, suggested %v",
				ErrTellMismatch, i, x[i], sug.X[i])
		}
	}
	return fmt.Errorf("%w: observation matches no outstanding suggestion", ErrTellMismatch)
}

// TellByID ingests the outcome of the outstanding suggestion with the given
// ID — the out-of-order observation path of a distributed batch run. The
// suggestion's recorded point and fidelity are used verbatim; an unknown or
// already-told ID returns ErrUnknownSuggestion (ErrNoPendingAsk when nothing
// at all is outstanding), which duplicate reports from requeued evaluations
// should treat as "already ingested".
func (e *Engine) TellByID(id string, ev problem.Evaluation) error {
	return e.TellByIDCtx(context.Background(), id, ev)
}

// TellByIDCtx is TellByID with a context, for trace attribution like
// TellCtx.
func (e *Engine) TellByIDCtx(ctx context.Context, id string, ev problem.Evaluation) error {
	if len(e.pending) == 0 {
		if e.termErr != nil {
			return e.termErr
		}
		return ErrNoPendingAsk
	}
	for i, p := range e.pending {
		if p.sug.ID == id {
			return e.tellAt(ctx, i, ev)
		}
	}
	return fmt.Errorf("%w: %q", ErrUnknownSuggestion, id)
}

func equalPoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tellAt consumes pending slot i: its fantasy (if any) vanishes with the
// slot, the real observation is ingested, and the phase bookkeeping runs.
func (e *Engine) tellAt(ctx context.Context, i int, ev problem.Evaluation) error {
	p := e.pending[i]
	e.pending = append(e.pending[:i], e.pending[i+1:]...)
	sug := p.sug
	var span *telemetry.Span
	if e.st.telem != nil {
		span = e.st.telem.StartSpanIn(ctx, "engine.tell")
		span.Attr("iter", float64(sug.Iter))
		defer span.End()
	}
	e.st.ev = p.ev
	e.st.ingest(sug.Iter, sug.X, sug.Fid, ev)
	if sug.Iter < 0 {
		if len(e.pending) == 0 && e.initRemaining() == 0 {
			return e.finishInitIn(span)
		}
		// Initialization observations are checkpointed one by one too: a
		// distributed run acks each report as it lands, and "acked" must mean
		// "durably snapshotted" from the very first design point.
		return e.checkpointDurableIn(span)
	}
	e.st.iter++ // advance before checkpointing: snapshots store the completed count
	return e.checkpointDurableIn(span)
}

// Snapshot returns a deep-copied checkpoint of the current state, including
// the full pending set: a restored engine replays every outstanding
// suggestion (IDs, points, fidelities, fantasies) instead of recomputing.
func (e *Engine) Snapshot() *Checkpoint {
	ck := e.st.snapshot()
	for _, p := range e.pending {
		ck.Pending = append(ck.Pending, PendingSuggestion{
			ID:      p.sug.ID,
			X:       append([]float64(nil), p.sug.X...),
			Fid:     p.sug.Fid,
			Iter:    p.sug.Iter,
			Fantasy: append([]float64(nil), p.fantasy...),
		})
	}
	return ck
}

// History returns the live observation log (shared storage — callers must
// not mutate it and must serialize access with Ask/Tell).
func (e *Engine) History() []Observation { return e.st.res.History }

// Progress is a cheap point-in-time summary of a run, suitable for status
// endpoints.
type Progress struct {
	// Phase is "initializing", "running" or "done".
	Phase string
	// Iter is the next adaptive iteration.
	Iter int
	// Cost is the budget spent so far, Budget the configured total, both in
	// equivalent high-fidelity simulations.
	Cost, Budget               float64
	NumLow, NumHigh, NumFailed int
	// Outstanding counts asked-but-untold suggestions (the in-flight batch).
	Outstanding int
	// HasBest reports whether a successful high-fidelity observation exists;
	// BestX/Best/Feasible describe it when it does.
	HasBest  bool
	BestX    []float64
	Best     problem.Evaluation
	Feasible bool
	// Degradations counts graceful downgrades taken so far.
	Degradations int
	Interrupted  bool
}

// Progress summarizes the current state without mutating it.
func (e *Engine) Progress() Progress {
	p := Progress{
		Iter:         e.st.iter,
		Cost:         e.st.cost,
		Budget:       e.st.cfg.Budget,
		NumLow:       e.st.res.NumLow,
		NumHigh:      e.st.res.NumHigh,
		NumFailed:    e.st.res.NumFailed,
		Outstanding:  len(e.pending),
		Degradations: len(e.st.res.Degradations),
		Interrupted:  e.interrupted,
	}
	switch {
	case e.termErr != nil:
		p.Phase = "done"
	case !e.initDone:
		p.Phase = "initializing"
	default:
		p.Phase = "running"
	}
	if bx, be, feas := bestOf(e.st.targetData()); bx != nil {
		p.HasBest = true
		p.BestX = append([]float64(nil), bx...)
		p.Best = be
		p.Feasible = feas
	}
	return p
}

// Result assembles the final Result. It may be called at any time (the
// session layer uses it for status of live runs); on a terminal engine it
// reports exactly what Optimize would have returned: the terminal fault if
// one occurred, ErrNoFeasible when no successful high-fidelity observation
// exists, the completed Result otherwise.
func (e *Engine) Result() (*Result, error) {
	res := e.st.finish(context.Background())
	res.Interrupted = e.interrupted
	if e.termErr != nil && !errors.Is(e.termErr, ErrBudgetExhausted) && !errors.Is(e.termErr, ErrInterrupted) {
		return res, e.termErr
	}
	if res.BestX == nil {
		return res, ErrNoFeasible
	}
	return res, nil
}

// drive runs the classic in-process loop on top of the ask/tell machine:
// ask, evaluate on the problem itself, tell, until a terminal condition.
// OptimizeCtx and Resume are thin wrappers over it.
func (e *Engine) drive(ctx context.Context) (*Result, error) {
	var loopErr error
	for {
		sug, err := e.Ask(ctx)
		if err != nil {
			loopErr = err
			break
		}
		ev, everr := e.st.evaluate(ctx, sug.X, sug.Fid)
		if everr != nil {
			ev.Failed = true
		}
		if err := e.Tell(sug.X, sug.Fid, ev); err != nil {
			loopErr = err
			break
		}
	}
	if ctx.Err() != nil {
		e.interrupted = true
	}
	res, rerr := e.Result()
	// A checkpoint fault is not terminal for the engine (a service retries
	// the flush), but the in-process loop has no second chance: surface it
	// alongside the partial result, as the historical abort semantics did.
	if loopErr != nil && !errors.Is(loopErr, ErrBudgetExhausted) && !errors.Is(loopErr, ErrInterrupted) {
		return res, loopErr
	}
	return res, rerr
}
