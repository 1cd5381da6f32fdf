package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fidelity"
	"repro/internal/problem"
	"repro/internal/telemetry"
	"repro/internal/testfunc"
)

// TestIncrementalRefitEvery1Oracle is the exactness oracle demanded by the
// incremental machinery: with RefitEvery = 1 every proposal is a full refit,
// so Incremental = true must reproduce the Incremental = false trajectory
// bit-identically (same seed, low-rank off).
func TestIncrementalRefitEvery1Oracle(t *testing.T) {
	for _, tc := range []struct {
		mk     func() problem.Problem
		ladder *fidelity.Ladder
	}{
		{func() problem.Problem { return testfunc.Forrester() }, nil},
		{func() problem.Problem { return testfunc.ConstrainedSynthetic() }, nil},
		{func() problem.Problem { return testfunc.ConstrainedSynthetic() }, oneRungLadder(t)},
	} {
		cfg := fastCfg(8)
		cfg.Ladder = tc.ladder
		exact, err := Optimize(tc.mk(), cfg, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Incremental = true
		cfg.RefitEvery = 1
		incr, err := Optimize(tc.mk(), cfg, rand.New(rand.NewSource(31)))
		if err != nil {
			t.Fatal(err)
		}
		historiesIdentical(t, exact, incr)
	}
}

// TestIncrementalFitSkipSchedule runs a fit-skipping schedule end to end and
// checks the bookkeeping: skipped proposals are counted in the
// mfbo_gp_fit_skipped_total metric, rank-1 extensions in
// mfbo_gp_rank1_updates_total, and the iteration events carry the fit-skip
// decision — while the run itself still completes and spends its budget.
func TestIncrementalFitSkipSchedule(t *testing.T) {
	p := testfunc.Pedagogical()
	ring := telemetry.NewRing(2048)
	rec := telemetry.NewRecorder(ring, 1)
	cfg := fastCfg(14)
	cfg.Incremental = true
	cfg.RefitEvery = 4
	cfg.Telemetry = rec
	res, err := Optimize(p, cfg, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
	skipped := rec.Metrics.Counter("mfbo_gp_fit_skipped_total", "").Value()
	if skipped == 0 {
		t.Fatal("fit-skipping schedule never skipped a fit")
	}
	if rec.Metrics.Counter("mfbo_gp_rank1_updates_total", "").Value() == 0 {
		t.Fatal("no rank-1 updates recorded")
	}
	var evSkipped, evFull int
	for _, ev := range ring.Snapshot() {
		if ev.Iteration == nil {
			continue
		}
		if ev.Iteration.FitSkipped {
			evSkipped++
			if ev.Iteration.SinceRefit == 0 {
				t.Fatal("skipped iteration reports since_refit = 0")
			}
		} else {
			evFull++
		}
	}
	if evSkipped == 0 || evFull == 0 {
		t.Fatalf("want a mix of skipped and full fits in events, got %d/%d", evSkipped, evFull)
	}
}

// TestIncrementalSkipsUntouchedModels is the regression test for the
// wasted-refit bug: when only the low-fidelity dataset grows, the cached
// high-fidelity (fused) models must be served untouched — same pointers, same
// factorization — while the low models absorb the new row via a rank-1
// update.
func TestIncrementalSkipsUntouchedModels(t *testing.T) {
	p := testfunc.Forrester()
	cfg := fastCfg(20)
	cfg.Incremental = true
	cfg.RefitEvery = 100
	cfg.NLMLTrigger = -1
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	// Drive through initialization until the first adaptive proposal, which
	// performs the full fit that seeds the cache.
	var sug Suggestion
	for {
		sug, err = eng.Ask(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sug.Iter >= 0 {
			break
		}
		if err := eng.Tell(sug.X, sug.Fid, p.Evaluate(sug.X, sug.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.st
	c := st.lcache
	if c == nil {
		t.Fatal("adaptive proposal left no surrogate cache")
	}
	chainBefore := c.chains[0]
	if chainBefore == nil {
		t.Fatal("cache holds no fused chain")
	}
	highNLML := chainBefore.Level(1).NLML()
	highSize := chainBefore.Level(1).TrainingSize()
	lowSize := c.low[0].TrainingSize()

	// A new LOW observation arrives; the next proposal must extend the low
	// models in place and leave the fused level's factorization alone.
	x := []float64{0.375}
	st.ds(0).X = append(st.ds(0).X, x)
	st.ds(0).Y = append(st.ds(0).Y, []float64{p.Evaluate(x, problem.Low).Objective})
	chains, low, ok, skipped := st.incrementalLadder(st.iter+1, nil)
	if !ok || !skipped {
		t.Fatalf("expected a skipped fit, got ok=%v skipped=%v", ok, skipped)
	}
	if chains[0] != chainBefore {
		t.Fatal("fused chain was rebuilt despite receiving no new high data")
	}
	if got := chains[0].Level(1).NLML(); got != highNLML {
		t.Fatalf("high factorization changed: NLML %v vs %v", got, highNLML)
	}
	if got := chains[0].Level(1).TrainingSize(); got != highSize {
		t.Fatalf("high training size changed: %d vs %d", got, highSize)
	}
	if got := low[0].TrainingSize(); got != lowSize+1 {
		t.Fatalf("low model did not absorb the new row: size %d, want %d", got, lowSize+1)
	}
}

// TestIncrementalCheckpointRoundTrip proves the fit-skip schedule counter and
// the warm-start hyperparameters survive a snapshot → JSON → RestoreEngine
// round trip, so a resumed run keeps the same refit cadence.
func TestIncrementalCheckpointRoundTrip(t *testing.T) {
	p := testfunc.Forrester()
	cfg := fastCfg(10)
	cfg.Incremental = true
	cfg.RefitEvery = 5
	cfg.NLMLTrigger = -1
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(34)))
	if err != nil {
		t.Fatal(err)
	}
	// Run several adaptive iterations so sinceRefit advances past zero and
	// warm hyperparameters exist.
	adaptive := 0
	for adaptive < 4 {
		sug, err := eng.Ask(context.Background())
		if errors.Is(err, ErrBudgetExhausted) {
			t.Fatal("budget exhausted before enough adaptive iterations")
		}
		if err != nil {
			t.Fatal(err)
		}
		if sug.Iter >= 0 {
			adaptive++
		}
		if err := eng.Tell(sug.X, sug.Fid, p.Evaluate(sug.X, sug.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	if eng.st.sinceRefit == 0 {
		t.Fatal("test needs a nonzero sinceRefit to be meaningful")
	}
	ck := eng.Snapshot()
	if ck.SinceRefit != eng.st.sinceRefit {
		t.Fatalf("snapshot SinceRefit %d, live %d", ck.SinceRefit, eng.st.sinceRefit)
	}
	data, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(p, cfg, rand.New(rand.NewSource(99)), ck2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.st.sinceRefit != eng.st.sinceRefit {
		t.Fatalf("restored sinceRefit %d, want %d", restored.st.sinceRefit, eng.st.sinceRefit)
	}
	if eng.st.warm[0][0] == nil || eng.st.warm[0][1] == nil {
		t.Fatal("test needs warm hyperparameters at both levels to be meaningful")
	}
	if !reflect.DeepEqual(restored.st.warm, eng.st.warm) {
		t.Fatalf("warm hypers did not survive restore:\n%v\nvs\n%v", restored.st.warm, eng.st.warm)
	}
	// The model cache is deliberately not serialized: a restored engine must
	// start from a clean full refit.
	if restored.st.lcache != nil {
		t.Fatal("restored engine has a surrogate cache")
	}
}

// TestIncrementalLowRankEngages runs the opt-in low-rank surrogate inside the
// full loop: once the cheap dataset exceeds LowRankAfter the low GPs switch to
// the inducing-point approximation, and the run still completes.
func TestIncrementalLowRankEngages(t *testing.T) {
	p := testfunc.Pedagogical()
	ring := telemetry.NewRing(2048)
	rec := telemetry.NewRecorder(ring, 1)
	cfg := fastCfg(14)
	cfg.LowRankAfter = 12
	cfg.Telemetry = rec
	res, err := Optimize(p, cfg, rand.New(rand.NewSource(35)))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLow <= cfg.LowRankAfter {
		t.Skipf("run gathered only %d low points, low-rank never engaged", res.NumLow)
	}
	lowRank := false
	for _, ev := range ring.Snapshot() {
		if ev.Iteration != nil && ev.Iteration.LowRank {
			lowRank = true
		}
	}
	if !lowRank {
		t.Fatal("no iteration event reported a low-rank surrogate")
	}
}
