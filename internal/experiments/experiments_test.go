package experiments

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/testfunc"
)

func fakeResult(obj float64, feasible bool, sims float64) *core.Result {
	cons := []float64{-1}
	if !feasible {
		cons = []float64{1}
	}
	return &core.Result{
		BestX:          []float64{0},
		Best:           problem.Evaluation{Objective: obj, Constraints: cons},
		Feasible:       feasible,
		EquivalentSims: sims,
	}
}

func TestRunRepeatedOrderAndSeeds(t *testing.T) {
	results, err := RunRepeated(8, 100, func(rng *rand.Rand) (*core.Result, error) {
		v := rng.Float64() // deterministic per seed
		return fakeResult(v, true, 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	// Deterministic reference: same seeds replayed sequentially.
	for i, r := range results {
		want := rand.New(rand.NewSource(100 + int64(i))).Float64()
		if r.Best.Objective != want {
			t.Fatalf("replication %d not seed-deterministic", i)
		}
	}
}

func TestRunRepeatedPropagatesError(t *testing.T) {
	wantErr := errors.New("boom")
	_, err := RunRepeated(4, 1, func(rng *rand.Rand) (*core.Result, error) {
		return nil, wantErr
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestAlgoStatsAggregation(t *testing.T) {
	a := &AlgoStats{Name: "X", Results: []*core.Result{
		fakeResult(3, true, 10),
		fakeResult(1, true, 20),
		fakeResult(9, false, 30),
	}}
	if a.Successes() != 2 {
		t.Fatalf("successes = %d", a.Successes())
	}
	if a.AvgSims() != 20 {
		t.Fatalf("avg sims = %v", a.AvgSims())
	}
	objs := a.Objectives()
	if objs[0] != 3 || objs[1] != 1 || !math.IsInf(objs[2], 1) {
		t.Fatalf("objectives = %v", objs)
	}
	if a.BestRun().Best.Objective != 1 {
		t.Fatalf("best run objective = %v", a.BestRun().Best.Objective)
	}
	s, ok := a.ObjectiveSummary()
	if !ok || s.N != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary %+v ok=%v", s, ok)
	}
}

func TestAlgoStatsAllInfeasible(t *testing.T) {
	a := &AlgoStats{Name: "X", Results: []*core.Result{fakeResult(5, false, 1)}}
	if _, ok := a.ObjectiveSummary(); ok {
		t.Fatal("summary of all-infeasible should report !ok")
	}
	if a.Successes() != 0 {
		t.Fatal("successes should be 0")
	}
}

func TestBestRunPrefersFeasible(t *testing.T) {
	a := &AlgoStats{Name: "X", Results: []*core.Result{
		fakeResult(0.1, false, 1), // better objective but infeasible
		fakeResult(5, true, 1),
	}}
	if !a.BestRun().Feasible {
		t.Fatal("best run must prefer the feasible replication")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Test table", "A", "B")
	tab.AddRow("metric", "%.2f", 1.234, math.Inf(1))
	tab.AddRow("other", "%.0f", 10, 20)
	tab.AddTextRow("# Success", "3/3", "0/3")
	out := tab.Render()
	for _, want := range []string{"Test table", "Algo", "A", "B", "1.23", "—", "3/3", "# Success"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "---") {
		t.Fatalf("missing separator:\n%s", out)
	}
}

func TestTableNaNRendered(t *testing.T) {
	tab := NewTable("", "A")
	tab.AddRow("x", "%.2f", math.NaN())
	if !strings.Contains(tab.Render(), "n/a") {
		t.Fatal("NaN should render as n/a")
	}
}

func historyResult(evals []problem.Evaluation, fids []problem.Fidelity, costs []float64) *core.Result {
	r := &core.Result{}
	for i := range evals {
		r.History = append(r.History, core.Observation{
			Eval: evals[i], Fid: fids[i], CumCost: costs[i],
		})
	}
	return r
}

func TestConvergenceTrace(t *testing.T) {
	feas := func(v float64) problem.Evaluation {
		return problem.Evaluation{Objective: v, Constraints: []float64{-1}}
	}
	infeas := func(v float64) problem.Evaluation {
		return problem.Evaluation{Objective: v, Constraints: []float64{1}}
	}
	r := historyResult(
		[]problem.Evaluation{infeas(0), feas(5), feas(7), feas(3)},
		[]problem.Fidelity{problem.High, problem.High, problem.Low, problem.High},
		[]float64{1, 2, 2.5, 3},
	)
	cost, best := ConvergenceTrace(testfunc.Forrester(), r)
	// Low-fidelity points are skipped.
	if len(cost) != 3 {
		t.Fatalf("trace length %d, want 3", len(cost))
	}
	if !math.IsInf(best[0], 1) {
		t.Fatal("before first feasible the trace should be +Inf")
	}
	if best[1] != 5 || best[2] != 3 {
		t.Fatalf("best trace = %v", best)
	}
}

func TestMedianTraceAt(t *testing.T) {
	feas := func(v float64) problem.Evaluation {
		return problem.Evaluation{Objective: v, Constraints: []float64{-1}}
	}
	mk := func(vals ...float64) *core.Result {
		var evals []problem.Evaluation
		var fids []problem.Fidelity
		var costs []float64
		for i, v := range vals {
			evals = append(evals, feas(v))
			fids = append(fids, problem.High)
			costs = append(costs, float64(i+1))
		}
		return historyResult(evals, fids, costs)
	}
	results := []*core.Result{mk(5, 4, 3), mk(7, 2, 1), mk(6, 6, 6)}
	med := (&AlgoStats{Results: results}).MedianTraceAt([]float64{1, 2, 3})
	if med[0] != 6 {
		t.Fatalf("median at cost 1 = %v, want 6", med[0])
	}
	if med[1] != 4 {
		t.Fatalf("median at cost 2 = %v, want 4", med[1])
	}
	if med[2] != 3 {
		t.Fatalf("median at cost 3 = %v, want 3", med[2])
	}
}

func TestScalesAreOrdered(t *testing.T) {
	// Quick scales must be strictly cheaper than paper scales.
	pPA, qPA := PaperScalePA(), QuickScalePA()
	if qPA.MFBOBudget >= pPA.MFBOBudget || qPA.Runs >= pPA.Runs || qPA.DEBudget >= pPA.DEBudget {
		t.Fatal("quick PA scale not smaller than paper scale")
	}
	pCP, qCP := PaperScaleCP(), QuickScaleCP()
	if qCP.MFBOBudget >= pCP.MFBOBudget || qCP.Runs >= pCP.Runs || qCP.DEBudget >= pCP.DEBudget {
		t.Fatal("quick CP scale not smaller than paper scale")
	}
	// Paper-scale settings match §5 exactly.
	if pPA.MFBOBudget != 150 || pPA.WEIBOBudget != 150 || pPA.GASPADBudget != 300 ||
		pPA.DEBudget != 300 || pPA.Runs != 12 || pPA.MFBOInitLow != 10 || pPA.MFBOInitHigh != 5 {
		t.Fatal("paper PA budgets drifted from §5.1")
	}
	if pCP.MFBOBudget != 300 || pCP.WEIBOBudget != 800 || pCP.GASPADBudget != 2500 ||
		pCP.DEBudget != 10100 || pCP.Runs != 10 || pCP.MFBOInitLow != 30 || pCP.MFBOInitHigh != 10 {
		t.Fatal("paper CP budgets drifted from §5.2")
	}
}

// TestBaselinesOnThreeRungLadder: on forrester3 the target fidelity is rung
// 2, not problem.High (the middle rung). GASPAD and DE must simulate only
// the target rung, and SimsToBest must count WEIBO's target-rung history.
func TestBaselinesOnThreeRungLadder(t *testing.T) {
	p := testfunc.Forrester3()
	target := problem.TargetFidelity(p)
	if target != 2 {
		t.Fatalf("forrester3 target fidelity = %v, want rung 2", target)
	}
	gaspad, err := baselines.GASPAD(p, baselines.GASPADConfig{Budget: 10, Init: 6, GPMaxIter: 20}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	de, err := baselines.DE(p, baselines.DEConfig{Budget: 20}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*core.Result{"GASPAD": gaspad, "DE": de} {
		for i, ob := range r.History {
			if ob.Fid != target {
				t.Fatalf("%s history[%d] simulated fidelity %v, want %v", name, i, ob.Fid, target)
			}
		}
	}

	weibo, err := baselines.WEIBO(p, core.Config{
		Budget: 10, InitHigh: 5, GPMaxIter: 20,
		MSP: optimize.MSPConfig{Starts: 4, LocalIter: 15},
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var best problem.Evaluation
	want := math.NaN()
	for i, ob := range weibo.History {
		if ob.Fid != target {
			t.Fatalf("WEIBO history[%d] simulated fidelity %v, want %v", i, ob.Fid, target)
		}
		if i == 0 || problem.Better(ob.Eval, best) {
			best, want = ob.Eval, ob.CumCost
		}
	}
	if !(want < weibo.EquivalentSims) {
		t.Fatalf("best observation at cost %v is the run's last (%v); pick a seed that tells SimsToBest from the total", want, weibo.EquivalentSims)
	}
	if got := SimsToBest(p, weibo); got != want {
		t.Fatalf("WEIBO SimsToBest = %v, want %v (CumCost of its best target observation)", got, want)
	}
}

func TestCompareSignificance(t *testing.T) {
	mk := func(objs ...float64) *AlgoStats {
		a := &AlgoStats{Name: "x"}
		for _, o := range objs {
			a.Results = append(a.Results, fakeResult(o, true, 1))
		}
		return a
	}
	same := mk(1, 2, 3, 4, 5, 6, 7, 8)
	if p := CompareSignificance(same, same); p < 0.9 {
		t.Fatalf("identical distributions p = %v", p)
	}
	better := mk(1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7)
	worse := mk(9, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7)
	if p := CompareSignificance(better, worse); p > 0.01 {
		t.Fatalf("separated distributions p = %v", p)
	}
}

func TestCompareSignificanceInfeasibleRanksWorst(t *testing.T) {
	feas := &AlgoStats{Name: "a", Results: []*core.Result{
		fakeResult(1, true, 1), fakeResult(2, true, 1), fakeResult(3, true, 1),
		fakeResult(1.5, true, 1), fakeResult(2.5, true, 1), fakeResult(1.2, true, 1),
	}}
	infeas := &AlgoStats{Name: "b", Results: []*core.Result{
		fakeResult(0.1, false, 1), fakeResult(0.2, false, 1), fakeResult(0.3, false, 1),
		fakeResult(0.4, false, 1), fakeResult(0.5, false, 1), fakeResult(0.6, false, 1),
	}}
	if p := CompareSignificance(feas, infeas); p > 0.05 {
		t.Fatalf("all-infeasible arm should rank strictly worse: p = %v", p)
	}
}
