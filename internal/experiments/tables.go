package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/testbench"
)

// Scale sizes one table experiment. Paper-scale settings replicate the
// budgets of §5; quick-scale settings keep the same structure at a fraction
// of the compute so the benchmark harness can run on a laptop (EXPERIMENTS.md
// records both).
type Scale struct {
	Runs int

	// MFBO (ours).
	MFBOBudget                float64
	MFBOInitLow, MFBOInitHigh int

	// Baselines.
	WEIBOBudget, WEIBOInit   int
	GASPADBudget, GASPADInit int
	DEBudget                 int

	// Shared solver knobs.
	MSPStarts, LocalIter              int
	GPRestarts, GPMaxIter, RefitEvery int
	MCSamples                         int
	// MFBO wall-clock guards for high-dimensional problems (0 = off).
	MaxLowData, MaxIterations int
}

// PaperScalePA reproduces the Table 1 budgets: ours limited to 150
// equivalent simulations with 10+5 initialization, WEIBO 150 sims with 40
// init, GASPAD and DE 300 sims, 12 replications.
func PaperScalePA() Scale {
	return Scale{
		Runs:       12,
		MFBOBudget: 150, MFBOInitLow: 10, MFBOInitHigh: 5,
		WEIBOBudget: 150, WEIBOInit: 40,
		GASPADBudget: 300, GASPADInit: 40,
		DEBudget:  300,
		MSPStarts: 20, LocalIter: 40,
		GPRestarts: 1, GPMaxIter: 50, RefitEvery: 2,
		MCSamples: 30,
	}
}

// QuickScalePA shrinks Table 1 to bench-harness size while preserving the
// budget ratios (ours:WEIBO = 1:1, GASPAD/DE = 2×).
func QuickScalePA() Scale {
	return Scale{
		Runs:       3,
		MFBOBudget: 30, MFBOInitLow: 8, MFBOInitHigh: 4,
		WEIBOBudget: 30, WEIBOInit: 12,
		GASPADBudget: 60, GASPADInit: 15,
		DEBudget:  60,
		MSPStarts: 8, LocalIter: 25,
		GPRestarts: 1, GPMaxIter: 40, RefitEvery: 3,
		MCSamples: 20,
	}
}

// PaperScaleCP reproduces the Table 2 budgets: ours 300 equivalent sims with
// 30+10 init, WEIBO 800 sims with 120 init, GASPAD 2500, DE 10100, 10 runs.
func PaperScaleCP() Scale {
	return Scale{
		Runs:       10,
		MFBOBudget: 300, MFBOInitLow: 30, MFBOInitHigh: 10,
		WEIBOBudget: 800, WEIBOInit: 120,
		GASPADBudget: 2500, GASPADInit: 120,
		DEBudget:  10100,
		MSPStarts: 20, LocalIter: 40,
		GPRestarts: 1, GPMaxIter: 50, RefitEvery: 5,
		MCSamples: 30,
	}
}

// QuickScaleCP shrinks Table 2 to bench-harness size (the 36-dimensional GP
// stack is the dominant cost).
func QuickScaleCP() Scale {
	return Scale{
		Runs:       2,
		MFBOBudget: 20, MFBOInitLow: 10, MFBOInitHigh: 5,
		WEIBOBudget: 40, WEIBOInit: 15,
		GASPADBudget: 80, GASPADInit: 20,
		DEBudget:  400,
		MSPStarts: 6, LocalIter: 15,
		GPRestarts: 1, GPMaxIter: 30, RefitEvery: 5,
		MCSamples:  15,
		MaxLowData: 100, MaxIterations: 250,
	}
}

// runAllProblem executes the four algorithms at the given scale on one
// problem, replicated sc.Runs times each from baseSeed.
func runAllProblem(prob problem.Problem, sc Scale, baseSeed int64) (map[string]*AlgoStats, error) {
	msp := optimize.MSPConfig{Starts: sc.MSPStarts, LocalIter: sc.LocalIter}
	algos := map[string]RunFn{
		"Ours": func(rng *rand.Rand) (*core.Result, error) {
			return core.Optimize(prob, core.Config{
				Budget:     sc.MFBOBudget,
				InitLow:    sc.MFBOInitLow,
				InitHigh:   sc.MFBOInitHigh,
				MSP:        msp,
				GPRestarts: sc.GPRestarts, GPMaxIter: sc.GPMaxIter,
				RefitEvery: sc.RefitEvery,
				NumSamples: sc.MCSamples,
				MaxLowData: sc.MaxLowData, MaxIterations: sc.MaxIterations,
			}, rng)
		},
		"WEIBO": func(rng *rand.Rand) (*core.Result, error) {
			return baselines.WEIBO(prob, core.Config{
				Budget: float64(sc.WEIBOBudget), InitHigh: sc.WEIBOInit, MSP: msp,
				GPRestarts: sc.GPRestarts, GPMaxIter: sc.GPMaxIter,
				RefitEvery: sc.RefitEvery,
			}, rng)
		},
		"GASPAD": func(rng *rand.Rand) (*core.Result, error) {
			return baselines.GASPAD(prob, baselines.GASPADConfig{
				Budget: sc.GASPADBudget, Init: sc.GASPADInit,
				GPRestarts: sc.GPRestarts, GPMaxIter: sc.GPMaxIter,
				RefitEvery: sc.RefitEvery,
			}, rng)
		},
		"DE": func(rng *rand.Rand) (*core.Result, error) {
			return baselines.DE(prob, baselines.DEConfig{Budget: sc.DEBudget}, rng)
		},
	}
	out := make(map[string]*AlgoStats, len(algos))
	for _, name := range AlgoOrder {
		results, err := RunRepeated(sc.Runs, baseSeed, algos[name])
		if err != nil {
			return nil, err
		}
		out[name] = &AlgoStats{Name: name, Problem: prob, Results: results}
	}
	return out, nil
}

// AlgoOrder fixes the column order of the rendered tables.
var AlgoOrder = []string{"Ours", "WEIBO", "GASPAD", "DE"}

// RunTable1 regenerates Table 1 (power amplifier). It returns the rendered
// table and the per-algorithm statistics for further analysis.
func RunTable1(pa *testbench.PowerAmp, sc Scale, baseSeed int64) (*Table, map[string]*AlgoStats, error) {
	statsByAlgo, err := runAllProblem(pa, sc, baseSeed)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("Table 1: power amplifier optimization", AlgoOrder...)
	row := func(label, format string, get func(a *AlgoStats) float64) {
		vals := make([]float64, len(AlgoOrder))
		for i, name := range AlgoOrder {
			vals[i] = get(statsByAlgo[name])
		}
		t.AddRow(label, format, vals...)
	}
	// Best-design metrics recovered from the packed constraints:
	// c₁ = 23 − Pout, c₂ = THD − 13.65.
	row("thd/dB", "%.2f", func(a *AlgoStats) float64 {
		return a.BestRun().Best.Constraints[1] + pa.THDMaxDB
	})
	row("Pout/dBm", "%.2f", func(a *AlgoStats) float64 {
		return pa.PoutMinDBm - a.BestRun().Best.Constraints[0]
	})
	effStat := func(pick func(stats.Summary) float64) func(a *AlgoStats) float64 {
		return func(a *AlgoStats) float64 {
			s, ok := negatedSummary(a)
			if !ok {
				return nan()
			}
			return pick(s)
		}
	}
	row("Eff(mean)/%", "%.2f", effStat(func(s stats.Summary) float64 { return s.Mean }))
	row("Eff(median)/%", "%.2f", effStat(func(s stats.Summary) float64 { return s.Median }))
	row("Eff(best)/%", "%.2f", effStat(func(s stats.Summary) float64 { return s.Max }))
	row("Eff(worst)/%", "%.2f", effStat(func(s stats.Summary) float64 { return s.Min }))
	row("Avg. # Sim", "%.0f", func(a *AlgoStats) float64 { return a.AvgSims() })
	succ := make([]string, len(AlgoOrder))
	for i, name := range AlgoOrder {
		succ[i] = successString(statsByAlgo[name], sc.Runs)
	}
	t.AddTextRow("# Success", succ...)
	return t, statsByAlgo, nil
}

// RunTable2 regenerates Table 2 (charge pump).
func RunTable2(cp *testbench.ChargePump, sc Scale, baseSeed int64) (*Table, map[string]*AlgoStats, error) {
	statsByAlgo, err := runAllProblem(cp, sc, baseSeed)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("Table 2: charge pump optimization", AlgoOrder...)
	row := func(label, format string, get func(a *AlgoStats) float64) {
		vals := make([]float64, len(AlgoOrder))
		for i, name := range AlgoOrder {
			vals[i] = get(statsByAlgo[name])
		}
		t.AddRow(label, format, vals...)
	}
	// Constraint packing: c₁..₄ = max_diff_i − {20,20,5,5}, c₅ = dev − 5.
	limits := []float64{20, 20, 5, 5, 5}
	for i, label := range []string{"max_diff1", "max_diff2", "max_diff3", "max_diff4", "deviation"} {
		i := i
		row(label, "%.2f", func(a *AlgoStats) float64 {
			return a.BestRun().Best.Constraints[i] + limits[i]
		})
	}
	fomStat := func(pick func(stats.Summary) float64) func(a *AlgoStats) float64 {
		return func(a *AlgoStats) float64 {
			s, ok := a.ObjectiveSummary()
			if !ok {
				return nan()
			}
			return pick(s)
		}
	}
	row("mean", "%.2f", fomStat(func(s stats.Summary) float64 { return s.Mean }))
	row("median", "%.2f", fomStat(func(s stats.Summary) float64 { return s.Median }))
	row("best", "%.2f", fomStat(func(s stats.Summary) float64 { return s.Min }))
	row("worst", "%.2f", fomStat(func(s stats.Summary) float64 { return s.Max }))
	row("Avg. # Sim", "%.0f", func(a *AlgoStats) float64 { return a.AvgSims() })
	succ := make([]string, len(AlgoOrder))
	for i, name := range AlgoOrder {
		succ[i] = successString(statsByAlgo[name], sc.Runs)
	}
	t.AddTextRow("# Success", succ...)
	return t, statsByAlgo, nil
}

// negatedSummary summarizes −objective (the PA maximizes efficiency, which
// the problem layer encodes as minimizing −Eff).
func negatedSummary(a *AlgoStats) (stats.Summary, bool) {
	var feas []float64
	for _, r := range a.Results {
		if r.Feasible {
			feas = append(feas, -r.Best.Objective)
		}
	}
	if len(feas) == 0 {
		return stats.Summary{}, false
	}
	return stats.Summarize(feas), true
}

func successString(a *AlgoStats, runs int) string {
	return fmt.Sprintf("%d/%d", a.Successes(), runs)
}

func nan() float64 { return math.NaN() }
