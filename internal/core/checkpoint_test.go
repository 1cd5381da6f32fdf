package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fidelity"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/testfunc"
)

// oneRungLadder is the single-fidelity ladder: the engine simulates only the
// problem's target fidelity.
func oneRungLadder(t *testing.T) *fidelity.Ladder {
	t.Helper()
	l, err := fidelity.FromCosts([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	return &l
}

// captureCheckpoints runs an optimization collecting every snapshot.
func captureCheckpoints(t *testing.T, budget float64, seed int64) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	cfg := fastCfg(budget)
	cfg.Checkpointer = func(ck *Checkpoint) error {
		cks = append(cks, ck)
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	res, err := Optimize(testfunc.ConstrainedSynthetic(), cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints captured")
	}
	return res, cks
}

func TestCheckpointRoundTripByteIdentical(t *testing.T) {
	_, cks := captureCheckpoints(t, 8, 21)
	ck := cks[len(cks)/2]
	data, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("checkpoint JSON round-trip is not byte-identical")
	}
}

// TestCheckpointFilePersistence: snapshots written through StoreCheckpointer
// on the fs backend survive a restart (a fresh store over the same
// directory), and a later snapshot supersedes an earlier one.
func TestCheckpointFilePersistence(t *testing.T) {
	_, cks := captureCheckpoints(t, 6, 22)
	ck := cks[len(cks)-1]
	dir := t.TempDir()
	open := func() storage.Store {
		fs, err := storage.NewFS(storage.FSConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if err := StoreCheckpointer(open(), "run")(ck); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpointFromStore(open(), "run")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, back) {
		t.Fatal("loaded checkpoint differs from saved one")
	}
	if err := StoreCheckpointer(open(), "run")(cks[0]); err != nil {
		t.Fatal(err)
	}
	first, err := LoadCheckpointFromStore(open(), "run")
	if err != nil {
		t.Fatal(err)
	}
	if first.Iter != cks[0].Iter || len(first.History) != len(cks[0].History) {
		t.Fatalf("newest snapshot not served: iter %d with %d observations, want %d with %d",
			first.Iter, len(first.History), cks[0].Iter, len(cks[0].History))
	}
}

func TestCheckpointerErrorAbortsRun(t *testing.T) {
	boom := errors.New("disk full")
	cfg := fastCfg(8)
	n := 0
	cfg.Checkpointer = func(*Checkpoint) error {
		n++
		if n >= 3 {
			return boom
		}
		return nil
	}
	rng := rand.New(rand.NewSource(23))
	res, err := Optimize(testfunc.Forrester(), cfg, rng)
	if !errors.Is(err, boom) {
		t.Fatalf("want checkpoint error, got %v", err)
	}
	if res == nil || len(res.History) == 0 {
		t.Fatal("partial result must accompany the checkpoint error")
	}
}

// TestKillMidFlightAndResume cancels a run after 3 adaptive iterations, then
// resumes from the last snapshot, on the problem's own two-rung ladder and on
// a one-rung ladder (WEIBO), whose every simulation is at problem.High.
func TestKillMidFlightAndResume(t *testing.T) {
	t.Run("two-rung", func(t *testing.T) { killAndResume(t, nil) })
	t.Run("one-rung", func(t *testing.T) { killAndResume(t, oneRungLadder(t)) })
}

func killAndResume(t *testing.T, ladder *fidelity.Ladder) {
	p := testfunc.ConstrainedSynthetic()
	const budget = 8.0
	cfg := fastCfg(budget)
	cfg.Ladder = ladder

	// Reference: uninterrupted run (same seed) for sanity.
	refRng := rand.New(rand.NewSource(31))
	ref, err := Optimize(p, cfg, refRng)
	if err != nil {
		t.Fatal(err)
	}

	// Killed run: cancel after the 3rd adaptive iteration's checkpoint.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	kcfg := cfg
	kcfg.Checkpointer = func(ck *Checkpoint) error {
		last = ck
		if ck.Iter >= 3 {
			cancel() // "kill" the run mid-flight
		}
		return nil
	}
	killRng := rand.New(rand.NewSource(31))
	killed, err := OptimizeCtx(ctx, p, kcfg, killRng)
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Interrupted {
		t.Fatal("cancelled run must report Interrupted")
	}
	if last == nil || last.Iter < 3 {
		t.Fatalf("no usable snapshot captured: %+v", last)
	}
	if killed.EquivalentSims >= budget {
		t.Fatal("killed run must stop before exhausting the budget")
	}

	// Serialize/deserialize the snapshot as a real crash-recovery would.
	data, err := last.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}

	resume := func(seed int64) *Result {
		r, err := Resume(context.Background(), p, cfg, rand.New(rand.NewSource(seed)), snap)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	resumed := resume(77)

	// The resumed history must extend the snapshot's history exactly: same
	// length prefix, byte-identical entries.
	if len(resumed.History) <= len(snap.History) {
		t.Fatalf("resume did not continue: %d <= %d observations", len(resumed.History), len(snap.History))
	}
	if !reflect.DeepEqual(resumed.History[:len(snap.History)], snap.History) {
		t.Fatal("resumed history prefix differs from the checkpoint history")
	}
	// Budget accounting continues seamlessly.
	if resumed.EquivalentSims < budget-1 || resumed.EquivalentSims > budget+1 {
		t.Fatalf("resumed run spent %.2f sims, budget %v", resumed.EquivalentSims, budget)
	}
	if resumed.Interrupted {
		t.Fatal("completed resume must not be Interrupted")
	}
	if resumed.BestX == nil {
		t.Fatal("resumed run must report a best point")
	}
	// Resuming twice with the same seed is fully deterministic — identical
	// history lengths and identical outcomes.
	again := resume(77)
	if len(again.History) != len(resumed.History) {
		t.Fatalf("resume not deterministic: %d vs %d observations", len(again.History), len(resumed.History))
	}
	if again.Best.Objective != resumed.Best.Objective {
		t.Fatal("resume not deterministic in outcome")
	}
	// And the resumed run is in the same ballpark as the uninterrupted one.
	if resumed.Feasible != ref.Feasible && !resumed.Feasible {
		t.Fatalf("resumed run lost feasibility (ref %v)", ref.Feasible)
	}
	if ladder != nil {
		for i, ob := range resumed.History {
			if ob.Fid != problem.High {
				t.Fatalf("one-rung observation %d at fidelity %v, want high", i, ob.Fid)
			}
		}
	}
}

func TestResumeValidation(t *testing.T) {
	_, cks := captureCheckpoints(t, 6, 41)
	ck := cks[len(cks)-1]
	rng := rand.New(rand.NewSource(1))

	// Wrong problem.
	if _, err := Resume(context.Background(), testfunc.Forrester(), fastCfg(6), rng, ck); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("resume must reject a mismatched problem with ErrResumeMismatch, got %v", err)
	}
	// Wrong budget.
	if _, err := Resume(context.Background(), testfunc.ConstrainedSynthetic(), fastCfg(99), rng, ck); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("resume must reject a mismatched budget with ErrResumeMismatch, got %v", err)
	}
	// A two-rung snapshot into a one-rung ladder, and the reverse.
	oneCfg := fastCfg(6)
	oneCfg.Ladder = oneRungLadder(t)
	if _, err := RestoreEngine(testfunc.ConstrainedSynthetic(), oneCfg, rng, ck); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("restore must reject a two-rung snapshot into a one-rung ladder, got %v", err)
	}
	eng, err := NewEngine(testfunc.ConstrainedSynthetic(), oneCfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(testfunc.ConstrainedSynthetic(), fastCfg(6), rng, eng.Snapshot()); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("restore must reject a one-rung snapshot into a two-rung ladder, got %v", err)
	}
	// Wrong version.
	bad := *ck
	bad.Version = 999
	if _, err := Resume(context.Background(), testfunc.ConstrainedSynthetic(), fastCfg(6), rng, &bad); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("resume must reject an unknown version with ErrResumeMismatch, got %v", err)
	}
	// Inconsistent data shapes (each mutation applies to a fresh copy).
	for name, mut := range map[string]func(*Checkpoint){
		"short LowY":     func(c *Checkpoint) { c.LowY = c.LowY[:len(c.LowY)-1] },
		"short HighX":    func(c *Checkpoint) { c.HighX = c.HighX[:len(c.HighX)-1] },
		"ragged X row":   func(c *Checkpoint) { c.LowX[0] = c.LowX[0][:1] },
		"narrow Y row":   func(c *Checkpoint) { c.HighY[0] = c.HighY[0][:1] },
		"MidY missing":   func(c *Checkpoint) { c.MidX = [][][]float64{c.LowX} },
		"pending X wide": func(c *Checkpoint) { c.Pending = []PendingSuggestion{{ID: "p", X: make([]float64, c.Dim+1)}} },
	} {
		data, err := ck.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bad, err := UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		mut(bad)
		if _, err := RestoreEngine(testfunc.ConstrainedSynthetic(), fastCfg(6), rng, bad); !errors.Is(err, ErrResumeMismatch) {
			t.Fatalf("%s: restore must fail with ErrResumeMismatch, got %v", name, err)
		}
	}
}
