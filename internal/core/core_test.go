package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fidelity"
	"repro/internal/mfgp"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/testfunc"
)

// fastCfg keeps unit-test runtimes low: small budget, few MSP starts.
func fastCfg(budget float64) Config {
	return Config{
		Budget:    budget,
		InitLow:   8,
		InitHigh:  4,
		MSP:       optimize.MSPConfig{Starts: 6, LocalIter: 25},
		GPMaxIter: 40,
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Optimize(testfunc.Pedagogical(), Config{}, rng); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestOptimizePedagogical(t *testing.T) {
	// Global optimum of f_h on [0,1] is near x ≈ 0.938 (last negative lobe
	// deepest because (x−√2) shrinks in magnitude as x grows... the deepest
	// lobe is actually the first one): verify against a grid.
	p := testfunc.Pedagogical()
	bestGrid := math.Inf(1)
	for i := 0; i <= 2000; i++ {
		x := float64(i) / 2000
		if v := testfunc.PedagogicalHigh(x); v < bestGrid {
			bestGrid = v
		}
	}
	rng := rand.New(rand.NewSource(2))
	res, err := Optimize(p, fastCfg(15), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("unconstrained problem must be 'feasible'")
	}
	if res.Best.Objective > bestGrid+0.15 {
		t.Fatalf("MFBO best %.4f too far from grid optimum %.4f", res.Best.Objective, bestGrid)
	}
}

func TestBudgetRespected(t *testing.T) {
	p := testfunc.Pedagogical()
	rng := rand.New(rand.NewSource(3))
	budget := 10.0
	res, err := Optimize(p, fastCfg(budget), rng)
	if err != nil {
		t.Fatal(err)
	}
	// The loop stops at the first crossing, so overshoot is at most one
	// high-fidelity simulation.
	if res.EquivalentSims > budget+1 {
		t.Fatalf("spent %v equivalent sims, budget %v", res.EquivalentSims, budget)
	}
	if res.EquivalentSims < budget-1 {
		t.Fatalf("left budget unspent: %v of %v", res.EquivalentSims, budget)
	}
}

func TestHistoryAccounting(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(4))
	res, err := Optimize(p, fastCfg(12), rng)
	if err != nil {
		t.Fatal(err)
	}
	nLow, nHigh := 0, 0
	prevCost := 0.0
	for _, ob := range res.History {
		if ob.Fid == problem.Low {
			nLow++
		} else {
			nHigh++
		}
		if ob.CumCost <= prevCost {
			t.Fatal("cumulative cost must increase")
		}
		prevCost = ob.CumCost
	}
	if nLow != res.NumLow || nHigh != res.NumHigh {
		t.Fatalf("history counts %d/%d vs result %d/%d", nLow, nHigh, res.NumLow, res.NumHigh)
	}
	want := problem.EquivalentSims(p, nLow, nHigh)
	if math.Abs(res.EquivalentSims-want) > 1e-9 {
		t.Fatalf("equivalent sims %v, want %v", res.EquivalentSims, want)
	}
	if res.NumLow < 8 || res.NumHigh < 4 {
		t.Fatal("initialization points missing from counts")
	}
}

func TestUsesBothFidelities(t *testing.T) {
	// The pedagogical low fidelity (sin 8πx) stays uncertain with few
	// points, so the §3.4 criterion must route early queries to the cheap
	// level and later confident queries to the expensive one.
	p := testfunc.Pedagogical()
	rng := rand.New(rand.NewSource(5))
	cfg := fastCfg(12)
	cfg.InitLow = 6
	res, err := Optimize(p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLow <= cfg.InitLow {
		t.Fatalf("no adaptive low-fidelity queries: %d", res.NumLow)
	}
	if res.NumHigh <= cfg.InitHigh {
		t.Fatalf("no adaptive high-fidelity queries: %d", res.NumHigh)
	}
}

func TestConstrainedFindsFeasible(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	rng := rand.New(rand.NewSource(6))
	res, err := Optimize(p, fastCfg(18), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("no feasible point found; best %+v", res.Best)
	}
	_, fOpt := testfunc.ConstrainedSyntheticOptimum()
	if res.Best.Objective > fOpt+0.35 {
		t.Fatalf("feasible best %.4f too far from optimum %.4f", res.Best.Objective, fOpt)
	}
	// The reported best must itself be feasible.
	e := p.Evaluate(res.BestX, problem.High)
	if !e.Feasible() {
		t.Fatal("reported best point is not feasible on re-evaluation")
	}
}

func TestCallbackInvoked(t *testing.T) {
	p := testfunc.Pedagogical()
	rng := rand.New(rand.NewSource(7))
	var n int
	cfg := fastCfg(8)
	cfg.Callback = func(ob Observation) {
		n++
		if len(ob.X) != 1 {
			t.Fatal("callback observation has wrong dim")
		}
	}
	res, err := Optimize(p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(res.History) {
		t.Fatalf("callback count %d != history %d", n, len(res.History))
	}
}

func TestForceHighFidelityAblation(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(8))
	cfg := fastCfg(12)
	cfg.ForceHighFidelity = true
	res, err := Optimize(p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Only initialization points may be low fidelity.
	if res.NumLow != cfg.InitLow {
		t.Fatalf("ablation still queried low fidelity: %d > %d", res.NumLow, cfg.InitLow)
	}
}

func TestGammaExtremesSteerFidelity(t *testing.T) {
	p := testfunc.Forrester()
	// Huge γ: criterion (σ² < γ) always true → all adaptive queries high.
	rngA := rand.New(rand.NewSource(9))
	cfgA := fastCfg(12)
	cfgA.Gamma = 1e9
	resA, err := Optimize(p, cfgA, rngA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.NumLow != cfgA.InitLow {
		t.Fatalf("γ=∞ should force high fidelity, got %d low", resA.NumLow)
	}
	// Tiny γ: criterion never true → all adaptive queries low.
	rngB := rand.New(rand.NewSource(10))
	cfgB := fastCfg(9)
	cfgB.Gamma = 1e-300
	resB, err := Optimize(p, cfgB, rngB)
	if err != nil {
		t.Fatal(err)
	}
	if resB.NumHigh != cfgB.InitHigh {
		t.Fatalf("γ=0 should force low fidelity, got %d high", resB.NumHigh)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := testfunc.Pedagogical()
	run := func() *Result {
		rng := rand.New(rand.NewSource(11))
		res, err := Optimize(p, fastCfg(8), rng)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.NumLow != b.NumLow || a.NumHigh != b.NumHigh {
		t.Fatal("same seed produced different runs")
	}
	if a.Best.Objective != b.Best.Objective {
		t.Fatal("same seed produced different best values")
	}
}

func TestPropagationVariants(t *testing.T) {
	p := testfunc.Pedagogical()
	for _, prop := range []mfgp.Propagation{mfgp.MonteCarlo, mfgp.GaussHermite} {
		rng := rand.New(rand.NewSource(12))
		cfg := fastCfg(8)
		cfg.Propagation = prop
		cfg.NumSamples = 10
		if _, err := Optimize(p, cfg, rng); err != nil {
			t.Fatalf("propagation %v failed: %v", prop, err)
		}
	}
}

func TestRefitEveryStillWorks(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(13))
	cfg := fastCfg(10)
	cfg.RefitEvery = 5
	res, err := Optimize(p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history")
	}
}

func TestMaxIterationsBoundsLoop(t *testing.T) {
	p := testfunc.Pedagogical()
	rng := rand.New(rand.NewSource(14))
	cfg := fastCfg(1000) // budget far beyond what 3 iterations can spend
	cfg.MaxIterations = 3
	res, err := Optimize(p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := len(res.History) - cfg.InitLow - cfg.InitHigh
	if adaptive != 3 {
		t.Fatalf("adaptive iterations = %d, want 3", adaptive)
	}
}

func TestMaxLowDataWindow(t *testing.T) {
	// With a tiny low-data window the run must still work and use both
	// fidelities; the window only affects surrogate training.
	p := testfunc.Pedagogical()
	rng := rand.New(rand.NewSource(15))
	cfg := fastCfg(10)
	cfg.MaxLowData = 6
	res, err := Optimize(p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumLow < cfg.InitLow {
		t.Fatal("history lost low-fidelity observations")
	}
}

func TestDatasetWindow(t *testing.T) {
	d := &dataset{}
	for i := 0; i < 5; i++ {
		d.add([]float64{float64(i)}, problem.Evaluation{Objective: float64(i)})
	}
	x, ys := d.window(3)
	if len(x) != 3 || x[0][0] != 2 {
		t.Fatalf("window = %v", x)
	}
	col := ys.column(0)
	if len(col) != 3 || col[2] != 4 {
		t.Fatalf("window column = %v", col)
	}
	// Unlimited window returns everything.
	x, _ = d.window(0)
	if len(x) != 5 {
		t.Fatal("window(0) should return all points")
	}
	x, _ = d.window(99)
	if len(x) != 5 {
		t.Fatal("window larger than data should return all points")
	}
}

func TestBestOfOrdering(t *testing.T) {
	d := &dataset{}
	d.add([]float64{0}, problem.Evaluation{Objective: 5, Constraints: []float64{1}})   // infeasible
	d.add([]float64{1}, problem.Evaluation{Objective: 9, Constraints: []float64{-1}})  // feasible
	d.add([]float64{2}, problem.Evaluation{Objective: 7, Constraints: []float64{-2}})  // feasible, better
	d.add([]float64{3}, problem.Evaluation{Objective: 1, Constraints: []float64{0.5}}) // infeasible, low obj
	x, e, feas := bestOf(d)
	if !feas || x[0] != 2 || e.Objective != 7 {
		t.Fatalf("bestOf = %v %+v %v", x, e, feas)
	}
	// All-infeasible dataset: least violation wins.
	d2 := &dataset{}
	d2.add([]float64{0}, problem.Evaluation{Objective: 1, Constraints: []float64{3}})
	d2.add([]float64{1}, problem.Evaluation{Objective: 9, Constraints: []float64{0.5}})
	x2, _, feas2 := bestOf(d2)
	if feas2 || x2[0] != 1 {
		t.Fatalf("least-violation pick wrong: %v %v", x2, feas2)
	}
}

func TestIsDuplicate(t *testing.T) {
	ladder, err := fidelity.TwoLevel(0.1)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{data: []*dataset{{}, {}}, ladder: ladder}
	st.ds(0).add([]float64{0.5, 0.5}, problem.Evaluation{})
	if !st.isDuplicateAtRung([]float64{0.5, 0.5}, 0) {
		t.Fatal("exact duplicate not detected")
	}
	if st.isDuplicateAtRung([]float64{0.5, 0.5}, 1) {
		t.Fatal("duplicate reported against wrong fidelity")
	}
	if st.isDuplicateAtRung([]float64{0.6, 0.5}, 0) {
		t.Fatal("distinct point reported as duplicate")
	}
}
