package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fidelity"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mfgp"
	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/testfunc"
)

// TestChooseRungMatchesSelectFidelity pins the K=2 case of the generalized
// rung selector to the paper's §3.4 rule (eqs. 11–12): evaluate at HIGH
// fidelity iff the largest standardized low-fidelity posterior variance over
// the outputs is below (1+Nc)·γ. chooseEvalRung must reproduce the rule's
// decision, σ²_max and threshold bit for bit, for every nc and γ.
func TestChooseRungMatchesSelectFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, d := 20, 2
	X := stats.UniformInBox(rng, []float64{0, 0}, []float64{1, 1}, n)
	mkGP := func(f func([]float64) float64) *gp.Model {
		y := make([]float64, n)
		for i, x := range X {
			y[i] = f(x)
		}
		m, err := gp.Fit(X, y, gp.Config{Kernel: kernel.NewSEARD(d), Restarts: 1, MaxIter: 40}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lowGPs := []*gp.Model{
		mkGP(func(x []float64) float64 { return math.Sin(7*x[0]) + x[1] }),
		mkGP(func(x []float64) float64 { return x[0]*x[0] - math.Cos(5*x[1]) }),
	}
	ladder, err := fidelity.TwoLevel(0.1)
	if err != nil {
		t.Fatal(err)
	}
	chains := make([]*mfgp.MultiLevel, len(lowGPs))
	for _, gamma := range []float64{0.01, 0.05, 0.5} {
		for nc := 0; nc <= 2; nc++ {
			st := &state{cfg: Config{Gamma: gamma}, nc: nc, nOut: len(lowGPs), ladder: ladder}
			for trial := 0; trial < 200; trial++ {
				x := stats.UniformInBox(rng, []float64{0, 0}, []float64{1, 1}, 1)[0]
				// The paper's rule, computed directly.
				maxVar := 0.0
				for _, m := range lowGPs {
					_, va := m.PredictLatent(x)
					std := m.OutputStd()
					if v := va / (std * std); v > maxVar {
						maxVar = v
					}
				}
				threshold := (1 + float64(nc)) * gamma
				wantHigh := maxVar < threshold
				dec := st.chooseEvalRung(chains, lowGPs, x)
				if (dec.rung == 1) != wantHigh {
					t.Fatalf("γ=%v nc=%d σ²=%v: chose rung %d, the §3.4 rule says high=%v",
						gamma, nc, maxVar, dec.rung, wantHigh)
				}
				if math.Float64bits(dec.sigma2Max) != math.Float64bits(maxVar) ||
					math.Float64bits(dec.threshold) != math.Float64bits(threshold) {
					t.Fatalf("decision record differs: (%v, %v) vs (%v, %v)",
						dec.sigma2Max, dec.threshold, maxVar, threshold)
				}
				if !dec.hasSigma2 || dec.forced {
					t.Fatal("unforced selection must record σ²")
				}
			}
		}
	}
	// ForceHighFidelity short-circuits to the target rung without a σ² record.
	st := &state{cfg: Config{Gamma: 0.01, ForceHighFidelity: true}, nc: 1, nOut: len(lowGPs), ladder: ladder}
	if dec := st.chooseEvalRung(chains, lowGPs, X[0]); dec.rung != 1 || !dec.forced || dec.hasSigma2 {
		t.Fatalf("forced selection = %+v, want the forced target rung", dec)
	}
}

// TestLegacyCheckpointRestoresIntoLadderEngine proves two-fidelity snapshots
// are unchanged by the ladder feature — none of the ladder fields leak into
// K=2 JSON — and that a snapshot with no rung metadata (as any pre-ladder
// release would have written) restores into the ladder-aware engine and runs
// to completion.
func TestLegacyCheckpointRestoresIntoLadderEngine(t *testing.T) {
	_, cks := captureCheckpoints(t, 8, 63)
	ck := cks[len(cks)/2]
	data, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Rungs", "RungCosts", "InitMid", "NumByRung", "MidX", "MidY", "WarmChain"} {
		if strings.Contains(string(data), `"`+field+`"`) {
			t.Fatalf("two-fidelity checkpoint JSON leaks ladder field %q:\n%s", field, data)
		}
	}
	snap, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(context.Background(), testfunc.ConstrainedSynthetic(), fastCfg(8), rand.New(rand.NewSource(7)), snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) <= len(snap.History) {
		t.Fatalf("resume did not continue: %d <= %d observations", len(res.History), len(snap.History))
	}
	if res.Interrupted || res.BestX == nil {
		t.Fatalf("restored run did not complete: interrupted=%v best=%v", res.Interrupted, res.BestX)
	}
	if res.NumByRung != nil {
		t.Fatal("K=2 result must not grow a NumByRung breakdown")
	}
}

// ladderCfg is the shared 3-rung run configuration for the K>2 tests.
func ladderCfg(budget float64) Config {
	cfg := fastCfg(budget)
	cfg.InitLow, cfg.InitMid, cfg.InitHigh = 6, 3, 3
	return cfg
}

// TestLadderOptimizeForrester3 runs the full K=3 loop end to end: rungs are
// selected from the whole ladder, the per-rung breakdown is reported, costs
// are charged by rung, and the optimum matches the two-fidelity engine's.
func TestLadderOptimizeForrester3(t *testing.T) {
	p := testfunc.Forrester3()
	res, err := Optimize(p, ladderCfg(14), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NumByRung) != 3 {
		t.Fatalf("NumByRung = %v, want 3 rungs", res.NumByRung)
	}
	total := 0
	for _, n := range res.NumByRung {
		total += n
	}
	if total != len(res.History) {
		t.Fatalf("per-rung counts sum to %d, history has %d", total, len(res.History))
	}
	if res.NumByRung[0] < 6 || res.NumByRung[1] < 3 || res.NumByRung[2] < 3 {
		t.Fatalf("initialization missing from per-rung counts: %v", res.NumByRung)
	}
	// Cost accounting: Σ count·γ over sub-target rungs + target count.
	want := float64(res.NumByRung[2]) + 0.1*float64(res.NumByRung[0]) + 0.25*float64(res.NumByRung[1])
	if math.Abs(res.EquivalentSims-want) > 1e-9 {
		t.Fatalf("EquivalentSims %v, want %v from %v", res.EquivalentSims, want, res.NumByRung)
	}
	// The Forrester optimum is x*≈0.757, f*≈−6.02; the ladder run must find
	// the same basin the two-fidelity engine does.
	if !res.Feasible || res.Best.Objective > -5.5 {
		t.Fatalf("ladder run missed the optimum: %+v", res.Best)
	}
}

// TestOneRungLadderSimulatesOnlyTheTarget runs a one-rung ladder on a K=3
// problem: the design is named init-high, every simulation is at the
// problem's target fidelity and counted as high, and no per-rung breakdown
// or degradation appears.
func TestOneRungLadderSimulatesOnlyTheTarget(t *testing.T) {
	p := testfunc.Forrester3()
	cfg := fastCfg(10)
	cfg.Ladder = oneRungLadder(t)
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if s, err := eng.Ask(context.Background()); err != nil || s.ID != "init-high-0" || s.Fid != problem.Fidelity(2) {
		t.Fatalf("first suggestion %q at fidelity %v (err %v), want init-high-0 at fidelity 2", s.ID, s.Fid, err)
	}
	res, err := Optimize(p, cfg, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	for i, ob := range res.History {
		if ob.Fid != problem.Fidelity(2) {
			t.Fatalf("observation %d at fidelity %v, want 2", i, ob.Fid)
		}
	}
	if res.NumHigh != len(res.History) || res.NumLow != 0 || res.NumByRung != nil {
		t.Fatalf("NumHigh %d NumLow %d NumByRung %v over %d observations",
			res.NumHigh, res.NumLow, res.NumByRung, len(res.History))
	}
	if res.EquivalentSims != float64(len(res.History)) || len(res.Degradations) != 0 {
		t.Fatalf("EquivalentSims %v over %d observations, degradations %v",
			res.EquivalentSims, len(res.History), res.Degradations)
	}
}

// TestLadderCheckpointRoundTripK3 kills a 3-rung run mid-flight and resumes
// it from the serialized snapshot: the resumed history must extend the
// snapshot's exactly and the mid-rung dataset must survive the round trip.
func TestLadderCheckpointRoundTripK3(t *testing.T) {
	p := testfunc.Forrester3()
	const budget = 10.0
	cfg := ladderCfg(budget)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	kcfg := cfg
	kcfg.Checkpointer = func(ck *Checkpoint) error {
		last = ck
		if ck.Iter >= 3 {
			cancel()
		}
		return nil
	}
	killed, err := OptimizeCtx(ctx, p, kcfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Interrupted || last == nil {
		t.Fatalf("no usable mid-flight snapshot (interrupted=%v)", killed.Interrupted)
	}
	if last.Rungs != 3 || len(last.RungCosts) != 3 {
		t.Fatalf("K=3 snapshot missing ladder metadata: rungs=%d costs=%v", last.Rungs, last.RungCosts)
	}
	if len(last.MidX) != 1 || len(last.MidX[0]) == 0 {
		t.Fatalf("K=3 snapshot missing mid-rung dataset: %v", last.MidX)
	}

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
	if len(resumed.History) <= len(snap.History) {
		t.Fatalf("resume did not continue: %d <= %d", len(resumed.History), len(snap.History))
	}
	if !reflect.DeepEqual(resumed.History[:len(snap.History)], snap.History) {
		t.Fatal("resumed history prefix differs from the checkpoint history")
	}
	if resumed.EquivalentSims < budget-1 || resumed.EquivalentSims > budget+1 {
		t.Fatalf("resumed run spent %.2f sims, budget %v", resumed.EquivalentSims, budget)
	}
	again := resume(77)
	if len(again.History) != len(resumed.History) || again.Best.Objective != resumed.Best.Objective {
		t.Fatal("K=3 resume is not deterministic")
	}

	// A two-fidelity binary must refuse the ladder snapshot (rung mismatch)
	// rather than silently mangle the mid-rung data.
	if _, err := Resume(context.Background(), testfunc.Forrester(), cfg, rand.New(rand.NewSource(1)), snap); err == nil {
		t.Fatal("resume onto a 2-rung problem must fail")
	}
}

// TestLadderResumeRefusesMissingRungState: a K=3 snapshot stripped of its
// mid-rung training sets or of its per-rung counts is refused with
// ErrResumeMismatch, instead of restoring an engine that silently lost
// acknowledged mid-rung observations. A snapshot taken before the first
// observation legitimately has no per-rung counts and still restores.
func TestLadderResumeRefusesMissingRungState(t *testing.T) {
	p := testfunc.Forrester3()
	cfg := ladderCfg(8)
	var last *Checkpoint
	kcfg := cfg
	kcfg.Checkpointer = func(ck *Checkpoint) error {
		last = ck
		return nil
	}
	if _, err := Optimize(p, kcfg, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if len(last.MidX) != 1 || len(last.MidX[0]) == 0 || len(last.NumByRung) != 3 {
		t.Fatalf("K=3 snapshot lacks mid-rung state: %d mid sets, counts %v", len(last.MidX), last.NumByRung)
	}
	restore := func(ck *Checkpoint) error {
		data, err := ck.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RestoreEngine(p, cfg, rand.New(rand.NewSource(3)), snap)
		return err
	}
	if err := restore(last); err != nil {
		t.Fatalf("intact snapshot refused: %v", err)
	}
	for name, strip := range map[string]func(*Checkpoint){
		"all mid-rung state": func(ck *Checkpoint) { ck.MidX, ck.MidY, ck.NumByRung = nil, nil, nil },
		"mid-rung sets":      func(ck *Checkpoint) { ck.MidX, ck.MidY = nil, nil },
		"mid-rung outputs":   func(ck *Checkpoint) { ck.MidY = nil },
		"per-rung counts":    func(ck *Checkpoint) { ck.NumByRung = nil },
		"short counts":       func(ck *Checkpoint) { ck.NumByRung = ck.NumByRung[:2] },
	} {
		ck := *last
		strip(&ck)
		if err := restore(&ck); !errors.Is(err, ErrResumeMismatch) {
			t.Fatalf("snapshot without %s: want ErrResumeMismatch, got %v", name, err)
		}
	}

	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := eng.Snapshot()
	if len(fresh.History) != 0 || fresh.NumByRung != nil {
		t.Fatalf("fresh snapshot has %d observations, counts %v", len(fresh.History), fresh.NumByRung)
	}
	if err := restore(fresh); err != nil {
		t.Fatalf("pre-observation snapshot refused: %v", err)
	}
}

// TestLadderAskBatch drives a 3-rung engine through AskBatch with q=3 and
// maximally out-of-order tells; the run must complete with a coherent
// per-rung breakdown, and init suggestions must carry mid-rung IDs.
func TestLadderAskBatch(t *testing.T) {
	p := testfunc.Forrester3()
	eng, err := NewEngine(p, ladderCfg(12), rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	sugs, err := eng.AskBatch(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	// The full init design is 6 low + 3 mid + 3 high.
	if len(sugs) != 12 {
		t.Fatalf("want 12 init suggestions, got %d", len(sugs))
	}
	byFid := map[problem.Fidelity]int{}
	sawMidID := false
	for _, s := range sugs {
		byFid[s.Fid]++
		if strings.HasPrefix(s.ID, "init-mid") {
			sawMidID = true
			if s.Fid != problem.Fidelity(1) {
				t.Fatalf("mid init suggestion %q has fidelity %v", s.ID, s.Fid)
			}
		}
	}
	if byFid[problem.Fidelity(0)] != 6 || byFid[problem.Fidelity(1)] != 3 || byFid[problem.Fidelity(2)] != 3 {
		t.Fatalf("init design per rung = %v, want 6/3/3", byFid)
	}
	if !sawMidID {
		t.Fatal("no init-mid suggestion IDs")
	}
	for i := len(sugs) - 1; i >= 0; i-- {
		if err := eng.TellByID(sugs[i].ID, p.Evaluate(sugs[i].X, sugs[i].Fid)); err != nil {
			t.Fatalf("TellByID(%s): %v", sugs[i].ID, err)
		}
	}
	res := driveBatch(t, eng, p, 3)
	if len(res.NumByRung) != 3 {
		t.Fatalf("NumByRung = %v", res.NumByRung)
	}
	total := 0
	for _, n := range res.NumByRung {
		total += n
	}
	if total != len(res.History) {
		t.Fatalf("per-rung counts sum to %d, history has %d", total, len(res.History))
	}
	if res.BestX == nil {
		t.Fatal("batch ladder run reported no best point")
	}
}

// TestLadderIncrementalMatchesFullRefit checks the K=3 incremental
// maintenance path stays on the same trajectory as its own full-refit
// schedule would at RefitEvery=1 (where every proposal refits and the cache
// is rebuilt each time — rank-1 extension never engages, so the two must
// agree exactly), and that RefitEvery>1 still completes and converges.
func TestLadderIncrementalMatchesFullRefit(t *testing.T) {
	run := func(incremental bool, refitEvery int) *Result {
		cfg := ladderCfg(10)
		cfg.Incremental = incremental
		cfg.RefitEvery = refitEvery
		res, err := Optimize(testfunc.Forrester3(), cfg, rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(false, 1)
	inc := run(true, 1)
	historiesIdentical(t, ref, inc)

	relaxed := run(true, 4)
	if !relaxed.Feasible || relaxed.Best.Objective > -5.0 {
		t.Fatalf("incremental K=3 run (RefitEvery=4) missed the optimum: %+v", relaxed.Best)
	}
}

// rungZeroBlackout fails every rung-0 simulation of a K-rung problem.
type rungZeroBlackout struct{ *testfunc.LadderFunc }

func (b rungZeroBlackout) Evaluate(x []float64, fid problem.Fidelity) problem.Evaluation {
	if fid == 0 {
		return problem.Evaluation{Objective: math.NaN()}
	}
	return b.LadderFunc.Evaluate(x, fid)
}

// TestLadderRungZeroBlackoutDegradesAsLowFit pins the degradation walk on a
// K>2 ladder: with no rung-0 data the rung-0 fit fails first, so every
// adaptive iteration falls back to random exploration with the same "low fit"
// reason the two-fidelity engine logs, without attempting the chain above it.
func TestLadderRungZeroBlackoutDegradesAsLowFit(t *testing.T) {
	p := rungZeroBlackout{testfunc.Forrester3()}
	cfg := ladderCfg(6)
	cfg.MaxIterations = 4
	res, err := Optimize(p, cfg, rand.New(rand.NewSource(31)))
	if err != nil && res == nil {
		t.Fatal(err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("rung-0 blackout took no degradation")
	}
	for _, d := range res.Degradations {
		if d.Stage != DegradeRandom || !strings.HasPrefix(d.Reason, "low fit: ") {
			t.Fatalf("degradation %+v, want %s with a %q reason", d, DegradeRandom, "low fit: ")
		}
	}
}
