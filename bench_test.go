// Package repro_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md §4 and
// EXPERIMENTS.md for the experiment index). Each BenchmarkTable*/Figure*
// runs a shape-preserving, reduced-scale version of the corresponding
// experiment and reports the headline quantities via b.ReportMetric; the
// full-scale runs are driven by cmd/tables and cmd/figures. Component
// microbenchmarks live in internal/bench.
package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/acq"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/mfgp"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/testbench"
	"repro/internal/testfunc"
)

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

// pedagogicalData is the 50-low/14-high training design of Figures 1-2.
func pedagogicalData() (Xl [][]float64, yl []float64, Xh [][]float64, yh []float64) {
	for i := 0; i < 50; i++ {
		x := float64(i) / 49
		Xl = append(Xl, []float64{x})
		yl = append(yl, testfunc.PedagogicalLow(x))
	}
	for i := 0; i < 14; i++ {
		x := float64(i) / 13
		Xh = append(Xh, []float64{x})
		yh = append(yh, testfunc.PedagogicalHigh(x))
	}
	return
}

// BenchmarkFigure1MultiFidelityPosterior regenerates Figure 1: the fused
// posterior over the pedagogical pair versus a single-fidelity GP. Reported
// metrics are the two model RMSEs over a 201-point grid.
func BenchmarkFigure1MultiFidelityPosterior(b *testing.B) {
	Xl, yl, Xh, yh := pedagogicalData()
	noise := 1e-6
	var mfRMSE, sfRMSE float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		mf, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
			Restarts: 3, FixedNoise: &noise, Propagation: mfgp.MonteCarlo, NumSamples: 50,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sf, err := gp.Fit(Xh, yh, gp.Config{Kernel: kernel.NewSEARD(1), Restarts: 3, FixedNoise: &noise}, rng)
		if err != nil {
			b.Fatal(err)
		}
		var mfSq, sfSq float64
		const n = 201
		for k := 0; k < n; k++ {
			x := float64(k) / (n - 1)
			truth := testfunc.PedagogicalHigh(x)
			mu, _ := mf.Predict([]float64{x})
			mfSq += (mu - truth) * (mu - truth)
			mu, _ = sf.PredictLatent([]float64{x})
			sfSq += (mu - truth) * (mu - truth)
		}
		mfRMSE = math.Sqrt(mfSq / n)
		sfRMSE = math.Sqrt(sfSq / n)
	}
	b.ReportMetric(mfRMSE, "mf-rmse")
	b.ReportMetric(sfRMSE, "sf-rmse")
}

// BenchmarkFigure2EIOverMFPosterior regenerates Figure 2: the EI
// acquisition over the fused posterior, reporting the peak EI value and its
// location.
func BenchmarkFigure2EIOverMFPosterior(b *testing.B) {
	Xl, yl, Xh, yh := pedagogicalData()
	noise := 1e-6
	rng := rand.New(rand.NewSource(1))
	mf, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
		Restarts: 3, FixedNoise: &noise, Propagation: mfgp.MonteCarlo, NumSamples: 50,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	tau := math.Inf(1)
	for _, y := range yh {
		if y < tau {
			tau = y
		}
	}
	b.ResetTimer()
	var peakEI, peakX float64
	for i := 0; i < b.N; i++ {
		peakEI, peakX = 0, 0
		for k := 0; k <= 200; k++ {
			x := float64(k) / 200
			mu, va := mf.Predict([]float64{x})
			if e := acq.EI(mu, va, tau); e > peakEI {
				peakEI, peakX = e, x
			}
		}
	}
	b.ReportMetric(peakEI, "peak-ei")
	b.ReportMetric(peakX, "peak-x")
}

// BenchmarkFigure3FidelityCorrelation regenerates Figure 3: the Vb sweep of
// the power amplifier at both fidelities. The reported metric is the
// correlation between the low- and high-fidelity efficiency curves — strong
// but visibly nonlinear in the paper.
func BenchmarkFigure3FidelityCorrelation(b *testing.B) {
	pa := testbench.NewPowerAmp()
	var corrv float64
	for i := 0; i < b.N; i++ {
		var lows, highs []float64
		x := []float64{12.94, 0.77, 0.42, 1.66, 0}
		for k := 0; k <= 10; k++ {
			x[4] = 1.0 + float64(k)/10
			lows = append(lows, pa.Simulate(x, problem.Low).EffPct)
			highs = append(highs, pa.Simulate(x, problem.High).EffPct)
		}
		corrv = correlation(lows, highs)
	}
	b.ReportMetric(corrv, "lf-hf-corr")
}

// BenchmarkFigure4NetlistConstruction regenerates Figure 4: building (and
// DC-solving) the charge-pump schematic.
func BenchmarkFigure4NetlistConstruction(b *testing.B) {
	cp := testbench.NewChargePump()
	x := make([]float64, cp.Dim())
	for k := 0; k < cp.Dim()/2; k++ {
		x[2*k], x[2*k+1] = 10, 0.2
	}
	var devices int
	for i := 0; i < b.N; i++ {
		ckt := cp.Netlist(x, testbench.NominalCorner(), true, false, 0.9)
		devices = len(ckt.Devices())
	}
	b.ReportMetric(float64(devices), "devices")
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

// benchScalePA is a single-replication miniature of Table 1 sized for the
// benchmark harness; cmd/tables runs the full version.
func benchScalePA() experiments.Scale {
	sc := experiments.QuickScalePA()
	sc.Runs = 1
	sc.MFBOBudget = 15
	sc.WEIBOBudget = 15
	sc.WEIBOInit = 8
	sc.GASPADBudget = 30
	sc.GASPADInit = 10
	sc.DEBudget = 30
	return sc
}

// BenchmarkTable1PowerAmp regenerates Table 1 at benchmark scale and reports
// the best efficiencies of ours and WEIBO plus the simulation counts.
func BenchmarkTable1PowerAmp(b *testing.B) {
	var tab map[string]*experiments.AlgoStats
	for i := 0; i < b.N; i++ {
		var err error
		_, tab, err = experiments.RunTable1(testbench.NewPowerAmp(), benchScalePA(), 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAlgoMetrics(b, tab, -1) // PA objective is −Eff: report as +Eff
}

// benchScaleCP is a single-replication miniature of Table 2.
func benchScaleCP() experiments.Scale {
	sc := experiments.QuickScaleCP()
	sc.Runs = 1
	sc.MFBOBudget = 10
	sc.MFBOInitLow = 8
	sc.MFBOInitHigh = 4
	sc.WEIBOBudget = 16
	sc.WEIBOInit = 8
	sc.GASPADBudget = 30
	sc.GASPADInit = 10
	sc.DEBudget = 100
	return sc
}

// BenchmarkTable2ChargePump regenerates Table 2 at benchmark scale and
// reports the best FOMs and simulation counts.
func BenchmarkTable2ChargePump(b *testing.B) {
	var tab map[string]*experiments.AlgoStats
	for i := 0; i < b.N; i++ {
		var err error
		_, tab, err = experiments.RunTable2(testbench.NewChargePump(), benchScaleCP(), 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAlgoMetrics(b, tab, +1)
}

// reportAlgoMetrics reports each algorithm's best objective (scaled by sign)
// and its sims-to-best.
func reportAlgoMetrics(b *testing.B, tab map[string]*experiments.AlgoStats, sign float64) {
	b.Helper()
	for _, name := range experiments.AlgoOrder {
		a := tab[name]
		obj := math.NaN()
		if s, ok := a.ObjectiveSummary(); ok {
			obj = sign * s.Min // with sign = −1 this is −min(−Eff) = best Eff
		}
		b.ReportMetric(obj, name+"-best")
		b.ReportMetric(a.AvgSims(), name+"-sims")
	}
}

// ---------------------------------------------------------------------------
// Headline claim: simulation-time reduction versus WEIBO
// ---------------------------------------------------------------------------

// BenchmarkHeadlineSimReduction measures the paper's headline metric — the
// relative reduction in equivalent simulations to reach a matched quality
// target, ours versus WEIBO — on the constrained synthetic problem (cheap
// enough to replicate within a benchmark run).
func BenchmarkHeadlineSimReduction(b *testing.B) {
	prob := testfunc.ConstrainedSynthetic()
	_, fOpt := testfunc.ConstrainedSyntheticOptimum()
	target := fOpt + 0.05
	var reduction float64
	for i := 0; i < b.N; i++ {
		var oursCost, weiboCost []float64
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			ours, err := core.Optimize(prob, core.Config{
				Budget: 25, InitLow: 8, InitHigh: 4,
				MSP: optimize.MSPConfig{Starts: 6, LocalIter: 25},
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			oursCost = append(oursCost, costToTarget(ours, target))
			rng = rand.New(rand.NewSource(100 + seed))
			weibo, err := baselines.WEIBO(prob, core.Config{
				Budget: 25, InitHigh: 10, MSP: optimize.MSPConfig{Starts: 6, LocalIter: 25},
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			weiboCost = append(weiboCost, costToTarget(weibo, target))
		}
		reduction = 100 * (1 - mean(oursCost)/mean(weiboCost))
	}
	b.ReportMetric(reduction, "sim-reduction-%")
}

// costToTarget returns the equivalent-sim cost at which the run first
// reached a feasible objective ≤ target (budget if never).
func costToTarget(r *core.Result, target float64) float64 {
	for _, ob := range r.History {
		if ob.Fid == problem.High && ob.Eval.Feasible() && ob.Eval.Objective <= target {
			return ob.CumCost
		}
	}
	return r.EquivalentSims
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

// BenchmarkAblationIncumbentSeeding compares MSP acquisition maximization
// with and without the §4.1 incumbent-local start points.
func BenchmarkAblationIncumbentSeeding(b *testing.B) {
	prob := testfunc.Pedagogical()
	var with, without float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(11))
		cfg := core.Config{Budget: 12, InitLow: 8, InitHigh: 4,
			MSP: optimize.MSPConfig{Starts: 6, LocalIter: 25}}
		r1, err := core.Optimize(prob, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		with = r1.Best.Objective
		rng = rand.New(rand.NewSource(11))
		cfg.DisableIncumbentSeeding = true
		r2, err := core.Optimize(prob, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		without = r2.Best.Objective
	}
	b.ReportMetric(with, "with-seeding")
	b.ReportMetric(without, "without-seeding")
}

// BenchmarkAblationFidelitySelection compares the §3.4 criterion against
// forcing every adaptive query to high fidelity.
func BenchmarkAblationFidelitySelection(b *testing.B) {
	prob := testfunc.Pedagogical()
	var adaptive, forced float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(12))
		cfg := core.Config{Budget: 10, InitLow: 8, InitHigh: 4,
			MSP: optimize.MSPConfig{Starts: 6, LocalIter: 25}}
		r1, err := core.Optimize(prob, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		adaptive = r1.Best.Objective
		rng = rand.New(rand.NewSource(12))
		cfg.ForceHighFidelity = true
		r2, err := core.Optimize(prob, cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		forced = r2.Best.Objective
	}
	b.ReportMetric(adaptive, "adaptive")
	b.ReportMetric(forced, "high-only")
}

// BenchmarkAblationFusionModel compares the paper's nonlinear NARGP fusion
// (eq. 8-9) against the linear Kennedy–O'Hagan AR1 model (eq. 7) it argues
// against, on the pedagogical pair with its quadratic cross-fidelity map.
func BenchmarkAblationFusionModel(b *testing.B) {
	Xl, yl, Xh, yh := pedagogicalData()
	noise := 1e-6
	var nargpRMSE, ar1RMSE float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(3))
		nargp, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
			Restarts: 3, FixedNoise: &noise, Propagation: mfgp.MonteCarlo, NumSamples: 40,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		ar1, err := mfgp.FitAR1(Xl, yl, Xh, yh, mfgp.AR1Config{Restarts: 3, FixedNoise: &noise}, rng)
		if err != nil {
			b.Fatal(err)
		}
		var nSq, aSq float64
		const n = 101
		for k := 0; k < n; k++ {
			x := float64(k) / (n - 1)
			want := testfunc.PedagogicalHigh(x)
			mu, _ := nargp.Predict([]float64{x})
			nSq += (mu - want) * (mu - want)
			mu, _ = ar1.Predict([]float64{x})
			aSq += (mu - want) * (mu - want)
		}
		nargpRMSE = math.Sqrt(nSq / n)
		ar1RMSE = math.Sqrt(aSq / n)
	}
	b.ReportMetric(nargpRMSE, "nargp-rmse")
	b.ReportMetric(ar1RMSE, "ar1-rmse")
}

// BenchmarkAblationPropagation compares Monte-Carlo and Gauss–Hermite
// posterior propagation through the fused model.
func BenchmarkAblationPropagation(b *testing.B) {
	Xl, yl, Xh, yh := pedagogicalData()
	noise := 1e-6
	for _, tc := range []struct {
		name string
		prop mfgp.Propagation
	}{
		{"MonteCarlo", mfgp.MonteCarlo},
		{"GaussHermite", mfgp.GaussHermite},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
				Restarts: 2, FixedNoise: &noise, Propagation: tc.prop, NumSamples: 30,
			}, rng)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rmse float64
			for i := 0; i < b.N; i++ {
				var sq float64
				const n = 101
				for k := 0; k < n; k++ {
					x := float64(k) / (n - 1)
					mu, _ := m.Predict([]float64{x})
					d := mu - testfunc.PedagogicalHigh(x)
					sq += d * d
				}
				rmse = math.Sqrt(sq / n)
			}
			b.ReportMetric(rmse, "rmse")
		})
	}
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func correlation(a, bv []float64) float64 {
	ma, mb := mean(a), mean(bv)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, bv[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}
