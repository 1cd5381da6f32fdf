package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/stats"
)

// LadderScale sizes one ladder-vs-two-fidelity comparison: the same engine is
// run once on the full K-rung problem and once on its TwoFidelityView (bottom
// and top rungs only), with equal budgets, so any cost-to-target difference is
// attributable to the intermediate rungs.
type LadderScale struct {
	Runs   int
	Budget float64
	// Initialization sizes. InitMid is per intermediate rung and ignored on
	// the two-fidelity arm.
	InitLow, InitMid, InitHigh int
	// Target is the objective threshold for the cost-to-target metric: the
	// cumulative equivalent-simulation cost at which the best feasible
	// target-rung objective first drops to Target or below.
	Target float64
	// Shared solver knobs.
	MSPStarts, LocalIter              int
	GPRestarts, GPMaxIter, RefitEvery int
	MCSamples                         int
}

// QuickScaleLadder is a minutes-scale comparison sized for forrester3.
func QuickScaleLadder() LadderScale {
	return LadderScale{
		Runs:   4,
		Budget: 25, InitLow: 8, InitMid: 4, InitHigh: 4,
		Target:    -5.5,
		MSPStarts: 8, LocalIter: 25,
		GPRestarts: 1, GPMaxIter: 40, RefitEvery: 2,
		MCSamples: 20,
	}
}

// CostToTarget returns the cumulative equivalent-simulation cost at which the
// best feasible target-rung objective of run r on p first reached target, or
// +Inf if it never did.
func CostToTarget(p problem.Problem, r *core.Result, target float64) float64 {
	cost, best := ConvergenceTrace(p, r)
	for i := range cost {
		if best[i] <= target {
			return cost[i]
		}
	}
	return math.Inf(1)
}

// LadderAlgoOrder fixes the column order of the comparison table.
var LadderAlgoOrder = []string{"Ladder", "2-Fid"}

// RunLadderComparison runs the engine on a K>2 problem twice — once with the
// full fidelity ladder and once restricted to a classic two-fidelity view —
// and tabulates cost-to-target, cost-to-best and outcome quality. prob must
// have at least three rungs (otherwise both arms are the same experiment).
func RunLadderComparison(prob problem.Problem, sc LadderScale, baseSeed int64) (*Table, map[string]*AlgoStats, error) {
	if k := problem.NumFidelities(prob); k < 3 {
		return nil, nil, fmt.Errorf("experiments: ladder comparison needs a K>2 problem, %q has %d rungs", prob.Name(), k)
	}
	msp := optimize.MSPConfig{Starts: sc.MSPStarts, LocalIter: sc.LocalIter}
	cfg := core.Config{
		Budget:  sc.Budget,
		InitLow: sc.InitLow, InitMid: sc.InitMid, InitHigh: sc.InitHigh,
		MSP:        msp,
		GPRestarts: sc.GPRestarts, GPMaxIter: sc.GPMaxIter,
		RefitEvery: sc.RefitEvery,
		NumSamples: sc.MCSamples,
	}
	probs := map[string]problem.Problem{"Ladder": prob, "2-Fid": fidelity.NewTwoFidelityView(prob)}
	out := make(map[string]*AlgoStats, len(probs))
	for _, name := range LadderAlgoOrder {
		p := probs[name]
		results, err := RunRepeated(sc.Runs, baseSeed, func(rng *rand.Rand) (*core.Result, error) {
			return core.Optimize(p, cfg, rng)
		})
		if err != nil {
			return nil, nil, err
		}
		out[name] = &AlgoStats{Name: name, Problem: p, Results: results}
	}

	t := NewTable(fmt.Sprintf("Ladder vs two-fidelity: %s (target %.4g)", prob.Name(), sc.Target), LadderAlgoOrder...)
	row := func(label, format string, get func(a *AlgoStats) float64) {
		vals := make([]float64, len(LadderAlgoOrder))
		for i, name := range LadderAlgoOrder {
			vals[i] = get(out[name])
		}
		t.AddRow(label, format, vals...)
	}
	objStat := func(pick func(stats.Summary) float64) func(a *AlgoStats) float64 {
		return func(a *AlgoStats) float64 {
			s, ok := a.ObjectiveSummary()
			if !ok {
				return nan()
			}
			return pick(s)
		}
	}
	row("obj(mean)", "%.4f", objStat(func(s stats.Summary) float64 { return s.Mean }))
	row("obj(median)", "%.4f", objStat(func(s stats.Summary) float64 { return s.Median }))
	row("obj(best)", "%.4f", objStat(func(s stats.Summary) float64 { return s.Min }))
	row("cost-to-target(med)", "%.1f", func(a *AlgoStats) float64 {
		costs := make([]float64, 0, len(a.Results))
		for _, r := range a.Results {
			costs = append(costs, CostToTarget(a.Problem, r, sc.Target))
		}
		return stats.Quantile(costs, 0.5)
	})
	row("Avg. # Sim", "%.1f", func(a *AlgoStats) float64 { return a.AvgSims() })
	row("Avg. total sims", "%.1f", func(a *AlgoStats) float64 { return a.AvgTotalSims() })
	reached := make([]string, len(LadderAlgoOrder))
	rungs := make([]string, len(LadderAlgoOrder))
	for i, name := range LadderAlgoOrder {
		a := out[name]
		n := 0
		for _, r := range a.Results {
			if !math.IsInf(CostToTarget(a.Problem, r, sc.Target), 1) {
				n++
			}
		}
		reached[i] = fmt.Sprintf("%d/%d", n, sc.Runs)
		rungs[i] = fmtRungCounts(a)
	}
	t.AddTextRow("# Reached target", reached...)
	t.AddTextRow("Sims by rung (avg)", rungs...)
	return t, out, nil
}

// fmtRungCounts averages the per-rung simulation counts over replications.
// Two-fidelity runs report "low+high".
func fmtRungCounts(a *AlgoStats) string {
	ladder := false
	var sums []float64
	for _, r := range a.Results {
		if len(r.NumByRung) > 0 {
			ladder = true
			for len(sums) < len(r.NumByRung) {
				sums = append(sums, 0)
			}
			for k, n := range r.NumByRung {
				sums[k] += float64(n)
			}
		} else {
			for len(sums) < 2 {
				sums = append(sums, 0)
			}
			sums[0] += float64(r.NumLow)
			sums[1] += float64(r.NumHigh)
		}
	}
	n := float64(len(a.Results))
	parts := ""
	for k, s := range sums {
		if k > 0 {
			parts += "+"
		}
		parts += fmt.Sprintf("%.1f", s/n)
	}
	if ladder {
		return parts
	}
	return parts + " (2f)"
}
