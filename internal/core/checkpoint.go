package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/problem"
	"repro/internal/storage"
)

// CheckpointVersion is bumped whenever the snapshot layout changes
// incompatibly.
const CheckpointVersion = 1

// Checkpoint is a complete, JSON-serializable snapshot of an optimization
// run: everything Resume needs to continue the loop except the live Config
// (function-valued fields cannot round-trip through JSON — the caller passes
// a fresh Config, and the RNG-visible scalar parts recorded here are
// validated against it).
type Checkpoint struct {
	Version int
	// Problem identity, validated on Resume.
	Problem        string
	Dim            int
	NumConstraints int
	// RNG-visible scalar config, validated on Resume (a mismatch would
	// silently change the search trajectory).
	Budget            float64
	Gamma             float64
	InitLow, InitHigh int
	// Loop position.
	Iter            int // next adaptive iteration
	Cost            float64
	NumLow, NumHigh int
	NumFailed       int
	// Training sets (successful evaluations only; failures live in History).
	LowX, LowY   [][]float64
	HighX, HighY [][]float64
	// Warm-start hyperparameters per output (may contain nil entries).
	WarmLow, WarmHigh [][]float64
	// SinceRefit is the Incremental-mode fit-skip counter: the number of
	// proposals served from the cached models since the last full
	// hyperparameter refit. The model cache itself is not serialized — the
	// first proposal after a restore performs a full refit — but restoring
	// the counter keeps the RefitEvery schedule aligned with the original
	// run.
	SinceRefit int `json:",omitempty"`
	// Full simulation history and degradation log.
	History      []Observation
	Degradations []Degradation
	// Pending round-trips the full set of asked-but-untold suggestions (the
	// outstanding batch of a distributed run), so a restored engine replays
	// them verbatim instead of recomputing — workers holding leases on them
	// can still report after a restart. Empty for purely sequential runs
	// snapshotted at the usual post-Tell boundary.
	Pending []PendingSuggestion `json:",omitempty"`

	// Fidelity-ladder state (K != 2 runs only — all fields absent on classic
	// two-fidelity snapshots, which therefore stay byte-identical to earlier
	// releases; a snapshot with Rungs == 0 decodes as a two-rung run).
	// Rungs is validated against the engine's ladder on Resume. A one-rung
	// snapshot records only Rungs: its single rung's training set travels in
	// HighX/HighY and its hyperparameters in WarmLow. K>2 snapshots also
	// carry RungCosts/InitMid; MidX/MidY hold the intermediate-rung training
	// sets (index = rung-1); WarmChain carries the per-output per-level chain
	// hyperparameters.
	Rungs     int           `json:",omitempty"`
	RungCosts []float64     `json:",omitempty"`
	InitMid   int           `json:",omitempty"`
	NumByRung []int         `json:",omitempty"`
	MidX      [][][]float64 `json:",omitempty"`
	MidY      [][][]float64 `json:",omitempty"`
	WarmChain [][][]float64 `json:",omitempty"`
}

// PendingSuggestion is the serialized form of one outstanding suggestion:
// identity, query, and — for adaptive batch slots — the fantasy outputs that
// stood in for its observation while later slots were proposed.
type PendingSuggestion struct {
	ID      string
	X       []float64
	Fid     problem.Fidelity
	Iter    int
	Fantasy []float64 `json:",omitempty"`
}

func cloneMatrix(m [][]float64) [][]float64 {
	if m == nil {
		return nil
	}
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// rungData returns the training set a snapshot holds for rung r of a ladder
// whose target rung is target: HighX at the target, LowX at rung 0, MidX in
// between (validateResume guarantees one MidX set per intermediate rung).
func (ck *Checkpoint) rungData(r, target int) (X, Y [][]float64) {
	switch r {
	case target:
		return ck.HighX, ck.HighY
	case 0:
		return ck.LowX, ck.LowY
	}
	return ck.MidX[r-1], ck.MidY[r-1]
}

// snapshot deep-copies the live state into a Checkpoint.
func (st *state) snapshot() *Checkpoint {
	hist := make([]Observation, len(st.res.History))
	for i, ob := range st.res.History {
		ob.X = append([]float64(nil), ob.X...)
		ob.Eval.Constraints = append([]float64(nil), ob.Eval.Constraints...)
		hist[i] = ob
	}
	ck := &Checkpoint{
		Version:        CheckpointVersion,
		Problem:        st.p.Name(),
		Dim:            st.d,
		NumConstraints: st.nc,
		Budget:         st.cfg.Budget,
		Gamma:          st.cfg.Gamma,
		InitLow:        st.cfg.InitLow,
		InitHigh:       st.cfg.InitHigh,
		Iter:           st.iter,
		Cost:           st.cost,
		NumLow:         st.res.NumLow,
		NumHigh:        st.res.NumHigh,
		NumFailed:      st.res.NumFailed,
		HighX:          cloneMatrix(st.targetData().X),
		HighY:          cloneMatrix(st.targetData().Y),
		WarmLow:        make([][]float64, st.nOut),
		WarmHigh:       make([][]float64, st.nOut),
		SinceRefit:     st.sinceRefit,
		History:        hist,
		Degradations:   append([]Degradation(nil), st.res.Degradations...),
	}
	if st.ladder.Target() > 0 {
		ck.LowX, ck.LowY = cloneMatrix(st.ds(0).X), cloneMatrix(st.ds(0).Y)
	}
	// The rung-0 hyperparameters always travel in WarmLow; the target level's
	// travel in WarmHigh on two-rung runs and inside WarmChain on longer
	// ladders, so either shape decodes to the same per-level warm state.
	for k, levels := range st.warm {
		ck.WarmLow[k] = append([]float64(nil), levels[0]...)
		if st.ladder.Rungs() == 2 {
			ck.WarmHigh[k] = append([]float64(nil), levels[1]...)
		}
	}
	if k := st.ladder.Rungs(); k != 2 {
		ck.Rungs = k
	}
	if st.ladder.Rungs() > 2 {
		ck.RungCosts = st.ladder.Costs()
		ck.InitMid = st.cfg.InitMid
		ck.NumByRung = append([]int(nil), st.res.NumByRung...)
		for _, d := range st.data[1:st.ladder.Target()] {
			ck.MidX = append(ck.MidX, cloneMatrix(d.X))
			ck.MidY = append(ck.MidY, cloneMatrix(d.Y))
		}
		for _, levels := range st.warm {
			if levels[0] == nil && levels[len(levels)-1] == nil {
				levels = nil // never fitted: encoded as null, as before any chain fit
			}
			ck.WarmChain = append(ck.WarmChain, cloneMatrix(levels))
		}
	}
	return ck
}

// restoreWarm loads the per-level warm hyperparameters of a snapshot (see
// snapshot for the layout). Entries of the wrong shape are ignored: the
// affected levels start from the default hyperparameters.
func (st *state) restoreWarm(ck *Checkpoint) {
	for k, levels := range st.warm {
		if len(ck.WarmLow) == st.nOut {
			levels[0] = append([]float64(nil), ck.WarmLow[k]...)
		}
		if len(ck.WarmHigh) == st.nOut && st.ladder.Rungs() == 2 {
			levels[1] = append([]float64(nil), ck.WarmHigh[k]...)
		}
		if len(ck.WarmChain) == st.nOut && len(ck.WarmChain[k]) == len(levels) && st.ladder.Rungs() > 2 {
			copy(levels, cloneMatrix(ck.WarmChain[k]))
		}
	}
}

// checkpoint invokes the configured Checkpointer hook, if any, with a full
// snapshot — the engine-level view that includes the outstanding pending set.
func (e *Engine) checkpoint() error {
	if e.st.cfg.Checkpointer == nil {
		return nil
	}
	if err := e.st.cfg.Checkpointer(e.Snapshot()); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// Marshal renders the checkpoint as deterministic, human-inspectable JSON:
// exactly the bytes of json.MarshalIndent(ck, "", " "), written directly
// (see ckEncoder). A NaN or infinite float is an error, as it is for
// encoding/json.
func (ck *Checkpoint) Marshal() ([]byte, error) {
	var e ckEncoder
	return e.encode(ck)
}

// UnmarshalCheckpoint parses a checkpoint previously produced by Marshal.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	return ck, nil
}

// StoreCheckpointer returns a Checkpointer hook persisting every snapshot
// into store under (storage.KindCheckpoint, id) as its Marshal bytes;
// durability (storage.FS: temp file, fsync, rename, directory fsync) and
// generational rollback are the store's business. The hook owns one encoder
// whose splice memo carries over between calls, so a snapshot costs what
// changed since the previous one; each call still hands the store a fresh
// buffer. The hook is not safe for concurrent use: the engine calls it
// serially, and so must anyone else holding it.
func StoreCheckpointer(store storage.Store, id string) func(*Checkpoint) error {
	enc := &ckEncoder{memo: true}
	return func(ck *Checkpoint) error {
		data, err := enc.encode(ck)
		if err != nil {
			return fmt.Errorf("core: marshal checkpoint: %w", err)
		}
		return store.Put(storage.KindCheckpoint, id, data)
	}
}

// LoadCheckpointFromStore reads the newest recoverable snapshot of id from
// store. storage.ErrNotFound passes through for errors.Is classification
// ("no snapshot yet" is a normal fresh-start condition).
func LoadCheckpointFromStore(store storage.Store, id string) (*Checkpoint, error) {
	data, err := store.Get(storage.KindCheckpoint, id)
	if err != nil {
		return nil, err
	}
	return UnmarshalCheckpoint(data)
}

// validateResume cross-checks the snapshot against the live problem/config.
// Every failure wraps ErrResumeMismatch so callers can classify it with
// errors.Is instead of matching message strings.
func validateResume(p problem.Problem, cfg *Config, ck *Checkpoint) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("%w: checkpoint version %d, want %d", ErrResumeMismatch, ck.Version, CheckpointVersion)
	}
	if ck.Problem != p.Name() {
		return fmt.Errorf("%w: checkpoint is for problem %q, not %q", ErrResumeMismatch, ck.Problem, p.Name())
	}
	if ck.Dim != p.Dim() || ck.NumConstraints != p.NumConstraints() {
		return fmt.Errorf("%w: checkpoint shape (d=%d, nc=%d) does not match problem (d=%d, nc=%d)",
			ErrResumeMismatch, ck.Dim, ck.NumConstraints, p.Dim(), p.NumConstraints())
	}
	if ck.Budget != cfg.Budget {
		return fmt.Errorf("%w: checkpoint budget %v != config budget %v", ErrResumeMismatch, ck.Budget, cfg.Budget)
	}
	if ck.Gamma != cfg.Gamma {
		return fmt.Errorf("%w: checkpoint gamma %v != config gamma %v", ErrResumeMismatch, ck.Gamma, cfg.Gamma)
	}
	// Rung count: a snapshot with Rungs == 0 is a legacy (or current
	// two-fidelity) checkpoint and resumes onto any 2-rung ladder; any other
	// snapshot requires the same rung count as the engine's ladder
	// (Config.Ladder when set, else the problem's).
	rungs := ck.Rungs
	if rungs == 0 {
		rungs = 2
	}
	k := problem.NumFidelities(p)
	if cfg.Ladder != nil {
		k = cfg.Ladder.Rungs()
	}
	if k != rungs {
		return fmt.Errorf("%w: checkpoint has %d fidelity rungs, the %q run's ladder has %d",
			ErrResumeMismatch, rungs, p.Name(), k)
	}
	// Ladder state: a K>2 snapshot carries one training set per
	// intermediate rung and, once anything was simulated, a per-rung count.
	// Without them a restore would silently drop acknowledged observations.
	if k > 2 && (len(ck.MidX) != k-2 || len(ck.MidY) != k-2) {
		return fmt.Errorf("%w: %d-rung checkpoint has %d mid-rung input sets and %d output sets, want %d",
			ErrResumeMismatch, k, len(ck.MidX), len(ck.MidY), k-2)
	}
	if k > 2 && len(ck.History) > 0 && len(ck.NumByRung) != k {
		return fmt.Errorf("%w: %d-rung checkpoint has %d per-rung counts, want %d",
			ErrResumeMismatch, k, len(ck.NumByRung), k)
	}
	// Data shapes: RestoreEngine and the first proposal index these sets
	// row by row, so a ragged snapshot must be refused here.
	if len(ck.MidX) != len(ck.MidY) {
		return fmt.Errorf("%w: checkpoint has %d mid-rung input sets but %d output sets",
			ErrResumeMismatch, len(ck.MidX), len(ck.MidY))
	}
	ny := 1 + p.NumConstraints()
	if err := checkDataShape("low-fidelity", ck.LowX, ck.LowY, ck.Dim, ny); err != nil {
		return err
	}
	if err := checkDataShape("high-fidelity", ck.HighX, ck.HighY, ck.Dim, ny); err != nil {
		return err
	}
	for i := range ck.MidX {
		if err := checkDataShape(fmt.Sprintf("rung-%d", i+1), ck.MidX[i], ck.MidY[i], ck.Dim, ny); err != nil {
			return err
		}
	}
	for _, ps := range ck.Pending {
		if len(ps.X) != ck.Dim {
			return fmt.Errorf("%w: pending suggestion %q has %d inputs, want %d",
				ErrResumeMismatch, ps.ID, len(ps.X), ck.Dim)
		}
	}
	return nil
}

// checkDataShape reports a training set whose inputs and outputs disagree in
// count, or whose rows are not dim inputs and ny outputs wide.
func checkDataShape(name string, X, Y [][]float64, dim, ny int) error {
	if len(X) != len(Y) {
		return fmt.Errorf("%w: checkpoint %s set has %d inputs but %d outputs",
			ErrResumeMismatch, name, len(X), len(Y))
	}
	for i := range X {
		if len(X[i]) != dim || len(Y[i]) != ny {
			return fmt.Errorf("%w: checkpoint %s row %d has %d inputs and %d outputs, want %d and %d",
				ErrResumeMismatch, name, i, len(X[i]), len(Y[i]), dim, ny)
		}
	}
	return nil
}

// Resume continues an optimization run from a snapshot: datasets, history,
// incumbents, spent budget and warm hyperparameters are restored exactly, and
// the adaptive loop picks up at the snapshot's iteration until the remaining
// budget is spent. The caller supplies the same problem and an equivalent
// Config (scalar fields are validated against the snapshot — mismatches
// return ErrResumeMismatch); rng seeds the continuation — the history prefix
// is bit-identical to the snapshot regardless. Snapshots taken before the
// initialization phase completed resume by finishing the initialization
// first (see RestoreEngine).
func Resume(ctx context.Context, p problem.Problem, cfg Config, rng *rand.Rand, ck *Checkpoint) (*Result, error) {
	eng, err := RestoreEngine(p, cfg, rng, ck)
	if err != nil {
		return nil, err
	}
	return eng.drive(ctx)
}
