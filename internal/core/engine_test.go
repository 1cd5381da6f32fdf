package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/problem"
	"repro/internal/robust"
	"repro/internal/testfunc"
)

// driveManually runs the full ask/evaluate/tell protocol by hand, the way an
// external evaluator would, and returns the assembled result.
func driveManually(t *testing.T, eng *Engine, p problem.Problem) *Result {
	t.Helper()
	for {
		sug, err := eng.Ask(context.Background())
		if errors.Is(err, ErrBudgetExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ev, everr := problem.EvaluateRich(p, sug.X, sug.Fid)
		if everr != nil {
			ev.Failed = true
		}
		if err := eng.Tell(sug.X, sug.Fid, ev); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineMatchesOptimize is the refactor's oracle: a hand-driven ask/tell
// session must reproduce the in-process Optimize trajectory bit-identically
// under the same seed.
func TestEngineMatchesOptimize(t *testing.T) {
	for _, mk := range []func() problem.Problem{
		func() problem.Problem { return testfunc.Forrester() },
		func() problem.Problem { return testfunc.ConstrainedSynthetic() },
	} {
		p := mk()
		ref, err := Optimize(mk(), fastCfg(8), rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(p, fastCfg(8), rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		res := driveManually(t, eng, p)
		historiesIdentical(t, ref, res)
	}
}

// TestEngineAskIdempotent: polling the same pending suggestion must not
// recompute it or consume randomness — crashed clients can simply re-ask.
func TestEngineAskIdempotent(t *testing.T) {
	p := testfunc.Forrester()
	eng, err := NewEngine(p, fastCfg(8), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated Ask changed the suggestion: %+v vs %+v", a, b)
	}
	// After the Tell, the next Ask differs.
	ev := p.Evaluate(a.X, a.Fid)
	if err := eng.Tell(a.X, a.Fid, ev); err != nil {
		t.Fatal(err)
	}
	c, err := eng.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("Ask after Tell replayed the consumed suggestion")
	}
}

func TestEngineTellValidation(t *testing.T) {
	p := testfunc.Forrester()
	eng, err := NewEngine(p, fastCfg(8), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	// Tell before any Ask.
	if err := eng.Tell([]float64{0.5}, problem.Low, problem.Evaluation{}); !errors.Is(err, ErrNoPendingAsk) {
		t.Fatalf("Tell without Ask: want ErrNoPendingAsk, got %v", err)
	}
	sug, err := eng.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Wrong point.
	bad := append([]float64(nil), sug.X...)
	bad[0] += 1e-9
	if err := eng.Tell(bad, sug.Fid, problem.Evaluation{}); !errors.Is(err, ErrTellMismatch) {
		t.Fatalf("mismatched point: want ErrTellMismatch, got %v", err)
	}
	// Wrong fidelity.
	if err := eng.Tell(sug.X, problem.High, problem.Evaluation{}); !errors.Is(err, ErrTellMismatch) {
		t.Fatalf("mismatched fidelity: want ErrTellMismatch, got %v", err)
	}
	// A rejected Tell leaves the pending suggestion intact.
	again, err := eng.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sug, again) {
		t.Fatal("rejected Tell disturbed the pending suggestion")
	}
	// Correct Tell succeeds; a duplicate Tell is then rejected.
	if err := eng.Tell(sug.X, sug.Fid, p.Evaluate(sug.X, sug.Fid)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Tell(sug.X, sug.Fid, problem.Evaluation{}); !errors.Is(err, ErrNoPendingAsk) {
		t.Fatalf("duplicate Tell: want ErrNoPendingAsk, got %v", err)
	}
}

// TestEngineNonFiniteTellSanitized: a told evaluation with non-finite payload
// is charged but excluded from surrogate training, exactly like the
// in-process sanitation path.
func TestEngineNonFiniteTellSanitized(t *testing.T) {
	p := testfunc.Forrester()
	eng, err := NewEngine(p, fastCfg(8), rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	sug, err := eng.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Tell(sug.X, sug.Fid, problem.Evaluation{Failed: true, Objective: problem.PenaltyObjective}); err != nil {
		t.Fatal(err)
	}
	pr := eng.Progress()
	if pr.NumFailed != 1 {
		t.Fatalf("failed Tell not counted: %+v", pr)
	}
	if n := len(eng.st.ds(0).X) + len(eng.st.ds(1).X); n != 0 {
		t.Fatalf("failed observation reached surrogate training sets (%d points)", n)
	}
	if len(eng.History()) != 1 || !eng.History()[0].Eval.Failed {
		t.Fatal("failed observation missing from history")
	}
}

// TestEngineTerminalBudget: once the budget is spent, Ask keeps returning
// ErrBudgetExhausted and Result reports the completed run.
func TestEngineTerminalBudget(t *testing.T) {
	p := testfunc.Forrester()
	eng, err := NewEngine(p, fastCfg(3), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	res := driveManually(t, eng, p)
	if eng.Progress().Phase != "done" {
		t.Fatal("engine must be terminal after exhausting the budget")
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Ask(context.Background()); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("terminal Ask: want ErrBudgetExhausted, got %v", err)
		}
	}
	if res.BestX == nil {
		t.Fatal("completed run must report a best point")
	}
	if pr := eng.Progress(); pr.Phase != "done" || !pr.HasBest {
		t.Fatalf("terminal progress wrong: %+v", pr)
	}
}

// TestEngineMidInitSnapshotRestore: a snapshot taken in the middle of the
// initialization phase restores into an engine that finishes the exact same
// design (same seed ⇒ identical redraw) and then reproduces the full
// uninterrupted trajectory bit-identically.
func TestEngineMidInitSnapshotRestore(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	const seed = 57
	ref, err := Optimize(testfunc.ConstrainedSynthetic(), fastCfg(7), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(p, fastCfg(7), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate 5 of the initialization points, then snapshot.
	for i := 0; i < 5; i++ {
		sug, err := eng.Ask(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sug.Iter != -1 {
			t.Fatalf("expected initialization suggestion, got iter %d", sug.Iter)
		}
		if err := eng.Tell(sug.X, sug.Fid, p.Evaluate(sug.X, sug.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	ck := eng.Snapshot()
	if len(ck.History) != 5 {
		t.Fatalf("snapshot history has %d entries, want 5", len(ck.History))
	}

	restored, err := RestoreEngine(p, fastCfg(7), rand.New(rand.NewSource(seed)), ck)
	if err != nil {
		t.Fatal(err)
	}
	res := driveManually(t, restored, p)
	historiesIdentical(t, ref, res)
	if !reflect.DeepEqual(res.History[:5], ck.History) {
		t.Fatal("restored run rewrote the snapshot prefix")
	}
}

// TestCheckpointResumeMidDegradation is the degraded-mode round-trip
// guarantee: a snapshot taken while the degradation ladder is active (here
// rung 3, random exploration, forced by a total low-fidelity blackout)
// restores with the degradation log intact, and the continuation is
// deterministic — two resumes from the same snapshot under the same seed are
// bit-identical.
func TestCheckpointResumeMidDegradation(t *testing.T) {
	mkProblem := func() problem.Problem {
		ch := robust.NewChaos(testfunc.Forrester(), robust.ChaosConfig{
			Low:  robust.FidelityChaos{FailRate: 1}, // every low-fidelity simulation fails
			Seed: 23,
		})
		return robust.Wrap(ch, robust.Policy{MaxRetries: -1, Sleep: noSleep})
	}

	cfg := fastCfg(6)
	cfg.MaxIterations = 6
	var mid *Checkpoint
	cfg.Checkpointer = func(ck *Checkpoint) error {
		// Keep the first snapshot taken while a degradation is on the books
		// and the run still has iterations ahead of it.
		if mid == nil && len(ck.Degradations) > 0 && ck.Iter >= 2 && ck.Iter < cfg.MaxIterations {
			mid = ck
		}
		return nil
	}
	if _, err := OptimizeCtx(context.Background(), mkProblem(), cfg, rand.New(rand.NewSource(29))); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("no mid-degradation snapshot captured")
	}
	found := false
	for _, d := range mid.Degradations {
		if d.Stage == DegradeRandom {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot does not carry the active degradation: %+v", mid.Degradations)
	}

	// Serialize/deserialize as a real crash-recovery would.
	data, err := mid.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}

	rcfg := fastCfg(6)
	rcfg.MaxIterations = 6
	resume := func() *Result {
		res, err := Resume(context.Background(), mkProblem(), rcfg, rand.New(rand.NewSource(31)), snap)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := resume(), resume()

	// Identical continuation: same length, bit-identical observations.
	historiesIdentical(t, a, b)
	if len(a.History) <= len(snap.History) {
		t.Fatalf("resume did not continue: %d <= %d observations", len(a.History), len(snap.History))
	}
	// The snapshot's history and degradation log are preserved verbatim.
	if !reflect.DeepEqual(a.History[:len(snap.History)], snap.History) {
		t.Fatal("resumed history prefix differs from the snapshot")
	}
	if len(a.Degradations) < len(snap.Degradations) ||
		!reflect.DeepEqual(a.Degradations[:len(snap.Degradations)], snap.Degradations) {
		t.Fatalf("degradation log not preserved: %+v vs snapshot %+v", a.Degradations, snap.Degradations)
	}
	// The blackout persists after resume, so the continuation must keep
	// degrading rather than silently heal.
	if len(a.Degradations) <= len(snap.Degradations) {
		t.Fatal("continuation recorded no further degradations under a persistent low-fidelity blackout")
	}
}
