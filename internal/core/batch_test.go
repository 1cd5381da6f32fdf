package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/problem"
	"repro/internal/testfunc"
)

// driveBatch runs an engine to completion through AskBatch(q)/TellByID,
// always answering the NEWEST outstanding suggestion first (maximally
// out-of-order), and returns the result.
func driveBatch(t *testing.T, eng *Engine, p problem.Problem, q int) *Result {
	t.Helper()
	for {
		sugs, err := eng.AskBatch(context.Background(), q)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				break
			}
			t.Fatalf("AskBatch: %v", err)
		}
		if len(sugs) == 0 {
			t.Fatal("AskBatch returned no suggestions and no error")
		}
		s := sugs[len(sugs)-1]
		ev, everr := problem.EvaluateRich(p, s.X, s.Fid)
		if everr != nil {
			ev.Failed = true
		}
		if err := eng.TellByID(s.ID, ev); err != nil {
			t.Fatalf("TellByID(%s): %v", s.ID, err)
		}
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

// TestAskBatchQ1Oracle is the batch-mode oracle: AskBatch with q=1 must
// reproduce the sequential Ask/Tell trajectory bit-for-bit — same points,
// fidelities, outcomes and suggestion IDs — for both fantasy strategies
// (which must be inert at q=1).
func TestAskBatchQ1Oracle(t *testing.T) {
	ref, err := Optimize(testfunc.ConstrainedSynthetic(), fastCfg(8), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []FantasyStrategy{FantasyKrigingBeliever, FantasyConstantLiar} {
		t.Run(string(strat), func(t *testing.T) {
			p := testfunc.ConstrainedSynthetic()
			cfg := fastCfg(8)
			cfg.Fantasy = strat
			eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			res := driveBatch(t, eng, p, 1)
			historiesIdentical(t, ref, res)
		})
	}
}

// TestAskBatchOutstandingSet exercises the batch protocol itself: q init
// points outstanding at once, deterministic IDs, out-of-order TellByID,
// ErrUnknownSuggestion for consumed IDs, and the adaptive batch carrying
// distinct iteration labels.
func TestAskBatchOutstandingSet(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	eng, err := NewEngine(p, fastCfg(8), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	sugs, err := eng.AskBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) != 3 {
		t.Fatalf("want 3 outstanding init suggestions, got %d", len(sugs))
	}
	for i, want := range []string{"init-low-0", "init-low-1", "init-low-2"} {
		if sugs[i].ID != want {
			t.Fatalf("suggestion %d: ID %q, want %q", i, sugs[i].ID, want)
		}
		if sugs[i].Iter != -1 || sugs[i].Fid != problem.Low {
			t.Fatalf("suggestion %d: want init-phase low-fidelity, got iter %d fid %v", i, sugs[i].Iter, sugs[i].Fid)
		}
	}
	// Idempotent: asking again returns the same outstanding set.
	again, err := eng.AskBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 3 || again[0].ID != sugs[0].ID || again[2].ID != sugs[2].ID {
		t.Fatalf("AskBatch not idempotent: %v vs %v", again, sugs)
	}
	if got := eng.Progress().Outstanding; got != 3 {
		t.Fatalf("Progress.Outstanding = %d, want 3", got)
	}

	// Tell out of order: newest first.
	for i := len(sugs) - 1; i >= 0; i-- {
		ev := p.Evaluate(sugs[i].X, sugs[i].Fid)
		if err := eng.TellByID(sugs[i].ID, ev); err != nil {
			t.Fatalf("TellByID(%s): %v", sugs[i].ID, err)
		}
		// A consumed ID is rejected with the typed sentinel while other
		// suggestions are still outstanding…
		dup := eng.TellByID(sugs[i].ID, problem.Evaluation{})
		if i > 0 && !errors.Is(dup, ErrUnknownSuggestion) {
			t.Fatalf("duplicate TellByID: got %v, want ErrUnknownSuggestion", dup)
		}
		// …and with ErrNoPendingAsk once nothing at all is outstanding.
		if i == 0 && !errors.Is(dup, ErrNoPendingAsk) {
			t.Fatalf("duplicate TellByID on drained engine: got %v, want ErrNoPendingAsk", dup)
		}
	}

	// Drain the rest of initialization so the adaptive phase can start.
	for {
		sugs, err = eng.AskBatch(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if sugs[0].Iter >= 0 {
			break
		}
		for _, s := range sugs {
			if err := eng.TellByID(s.ID, p.Evaluate(s.X, s.Fid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Adaptive batch: distinct iteration labels and IDs, starting at the
	// completed count.
	if len(sugs) != 4 {
		t.Fatalf("want 4 adaptive slots, got %d", len(sugs))
	}
	seen := map[string]bool{}
	for i, s := range sugs {
		if s.Iter != sugs[0].Iter+i {
			t.Fatalf("adaptive slot %d: iter %d, want %d", i, s.Iter, sugs[0].Iter+i)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate suggestion ID %q", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestAskBatchFantasyRetraction verifies that fantasy observations are
// invisible outside the proposal step: while a batch is outstanding the real
// training sets, history and snapshot contain only told observations, and
// the engine completes the run with exactly the real evaluations recorded.
func TestAskBatchFantasyRetraction(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	cfg := fastCfg(8)
	cfg.Fantasy = FantasyConstantLiar
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	// Finish initialization sequentially.
	for {
		s, err := eng.Ask(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if s.Iter >= 0 {
			if err := eng.Tell(s.X, s.Fid, p.Evaluate(s.X, s.Fid)); err != nil {
				t.Fatal(err)
			}
			break
		}
		if err := eng.Tell(s.X, s.Fid, p.Evaluate(s.X, s.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	nLow, nHigh := len(eng.st.ds(0).X), len(eng.st.ds(1).X)
	hist := len(eng.st.res.History)

	sugs, err := eng.AskBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) != 3 {
		t.Fatalf("want 3 outstanding, got %d", len(sugs))
	}
	// Three proposals are outstanding, each fantasized for the next — but the
	// real datasets must not have grown.
	if len(eng.st.ds(0).X) != nLow || len(eng.st.ds(1).X) != nHigh {
		t.Fatalf("fantasy rows leaked into training data: low %d→%d, high %d→%d",
			nLow, len(eng.st.ds(0).X), nHigh, len(eng.st.ds(1).X))
	}
	if len(eng.st.res.History) != hist {
		t.Fatalf("fantasy rows leaked into history: %d→%d", hist, len(eng.st.res.History))
	}
	ck := eng.Snapshot()
	if len(ck.LowX) != nLow || len(ck.HighX) != nHigh {
		t.Fatal("fantasy rows leaked into the checkpoint datasets")
	}
	if len(ck.Pending) != 3 {
		t.Fatalf("checkpoint must carry the 3 pending suggestions, got %d", len(ck.Pending))
	}
	for _, ps := range ck.Pending {
		if ps.Fantasy == nil {
			t.Fatalf("pending %s: missing fantasy outputs", ps.ID)
		}
		if len(ps.Fantasy) != 1+p.NumConstraints() {
			t.Fatalf("pending %s: fantasy has %d outputs, want %d", ps.ID, len(ps.Fantasy), 1+p.NumConstraints())
		}
	}

	// Completing the run records exactly the real evaluations.
	res := driveBatch(t, eng, p, 3)
	for i, ob := range res.History {
		ev := p.Evaluate(ob.X, ob.Fid)
		if ev.Objective != ob.Eval.Objective {
			t.Fatalf("history %d: objective %v is not the problem's value %v", i, ob.Eval.Objective, ev.Objective)
		}
	}
}

// TestMidBatchSnapshotRestore proves the pending set round-trips through a
// checkpoint: suggestions asked before the snapshot stay tellable after
// RestoreEngine (same IDs), and the restored engine finishes the run.
func TestMidBatchSnapshotRestore(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	cfg := fastCfg(8)
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// Mid-initialization batch: 3 asked, 1 told, snapshot with 2 pending.
	sugs, err := eng.AskBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.TellByID(sugs[1].ID, p.Evaluate(sugs[1].X, sugs[1].Fid)); err != nil {
		t.Fatal(err)
	}
	ck := eng.Snapshot()
	data, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck2.Pending) != 2 {
		t.Fatalf("snapshot pending = %d, want 2", len(ck2.Pending))
	}

	restored, err := RestoreEngine(p, cfg, rand.New(rand.NewSource(5)), ck2)
	if err != nil {
		t.Fatal(err)
	}
	rsugs, err := restored.AskBatch(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed pending set must come back verbatim, oldest first, plus a
	// top-up continuing the design (no duplicate IDs with the told one).
	if rsugs[0].ID != sugs[0].ID || rsugs[1].ID != sugs[2].ID {
		t.Fatalf("restored pending IDs %q,%q; want %q,%q", rsugs[0].ID, rsugs[1].ID, sugs[0].ID, sugs[2].ID)
	}
	for i := range rsugs[0].X {
		if rsugs[0].X[i] != sugs[0].X[i] {
			t.Fatalf("restored pending point differs at coordinate %d", i)
		}
	}
	if rsugs[2].ID != "init-low-3" {
		t.Fatalf("restored top-up ID %q, want init-low-3", rsugs[2].ID)
	}
	// Telling a replayed suggestion works by ID on the restored engine.
	if err := restored.TellByID(rsugs[0].ID, p.Evaluate(rsugs[0].X, rsugs[0].Fid)); err != nil {
		t.Fatalf("TellByID on restored engine: %v", err)
	}
	// And the restored engine completes the run.
	res := driveBatch(t, restored, p, 3)
	if res.NumLow+res.NumHigh != len(res.History) {
		t.Fatalf("inconsistent counts: %d+%d vs %d observations", res.NumLow, res.NumHigh, len(res.History))
	}

	// Mid-ADAPTIVE batch snapshot: run a fresh engine into the adaptive
	// phase, ask a batch, snapshot, restore, and check the fantasy-bearing
	// pending slots replay with their iteration labels.
	eng2, err := NewEngine(p, cfg, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		s, err := eng2.Ask(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := eng2.Tell(s.X, s.Fid, p.Evaluate(s.X, s.Fid)); err != nil {
			t.Fatal(err)
		}
		if s.Iter >= 0 {
			break
		}
	}
	bsugs, err := eng2.AskBatch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ck3 := eng2.Snapshot()
	restored2, err := RestoreEngine(p, cfg, rand.New(rand.NewSource(6)), ck3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := restored2.AskBatch(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(bsugs) {
		t.Fatalf("restored adaptive batch size %d, want %d", len(rs), len(bsugs))
	}
	for i := range rs {
		if rs[i].ID != bsugs[i].ID || rs[i].Iter != bsugs[i].Iter {
			t.Fatalf("restored slot %d: (%s, iter %d), want (%s, iter %d)",
				i, rs[i].ID, rs[i].Iter, bsugs[i].ID, bsugs[i].Iter)
		}
	}
	res2 := driveBatch(t, restored2, p, 2)
	if _, err := restored2.Result(); err != nil {
		t.Fatal(err)
	}
	if res2.EquivalentSims > cfg.Budget+1 {
		t.Fatalf("budget overrun: %v > %v", res2.EquivalentSims, cfg.Budget)
	}
}

// TestAskBatchRespectsCaps verifies that budget and MaxIterations bound the
// batch top-up without invalidating outstanding work: a cap reached with
// work in flight merely stops growth.
func TestAskBatchRespectsCaps(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	cfg := fastCfg(8)
	cfg.MaxIterations = 2
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// Drain initialization.
	for {
		s, err := eng.Ask(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if s.Iter >= 0 {
			break
		}
		if err := eng.Tell(s.X, s.Fid, p.Evaluate(s.X, s.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	// Iteration cap 2: a q=4 batch must stop at 2 outstanding adaptive slots.
	sugs, err := eng.AskBatch(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) != 2 {
		t.Fatalf("MaxIterations=2 admits 2 outstanding slots, got %d", len(sugs))
	}
	for _, s := range sugs {
		if err := eng.TellByID(s.ID, p.Evaluate(s.X, s.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.AskBatch(context.Background(), 4); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("after the cap: got %v, want ErrBudgetExhausted", err)
	}
}
