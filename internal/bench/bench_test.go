// Package bench holds the component microbenchmarks — GP training and
// prediction, MSP acquisition maximization, fused-posterior prediction, the
// blocked Cholesky factorization and the circuit simulators — and the per-Tell
// surrogate-maintenance scaling workloads with their gated speedup test. It
// has only test files:
//
//	go test -run '^$' -bench . ./internal/bench/
//
// Every workload draws its dataset from a fixed seed and performs bit-identical
// arithmetic for every worker count (the determinism contract of
// internal/parallel), so serial-vs-parallel comparisons measure scheduling
// overhead and speedup only — never a different computation.
package bench

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/mfgp"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testbench"
)

// The serial/8-worker pairs quantify the deterministic-parallelism speedup on
// multicore hardware; on a single-CPU machine the pairs should be within
// scheduling noise of each other, never slower by more than the pool overhead.

func BenchmarkGPFitSerial(b *testing.B)   { GPFit(1)(b) }
func BenchmarkGPFitWorkers8(b *testing.B) { GPFit(8)(b) }
func BenchmarkGPFitNARGP(b *testing.B)    { GPFitNARGP()(b) }
func BenchmarkMSPSerial(b *testing.B)     { MSP(1)(b) }
func BenchmarkMSPWorkers8(b *testing.B)   { MSP(8)(b) }
func BenchmarkPredictSingle(b *testing.B) { PredictSingle()(b) }
func BenchmarkFusedPredict(b *testing.B)  { FusedPredict()(b) }
func BenchmarkMSPFused(b *testing.B)      { MSPFused()(b) }
func BenchmarkCholesky160(b *testing.B)   { Cholesky(160)(b) }

// dataset builds a deterministic smooth regression set on [0,1]^d.
func dataset(seed int64, n, d int) (X [][]float64, y []float64, lo, hi []float64) {
	rng := rand.New(rand.NewSource(seed))
	lo = make([]float64, d)
	hi = make([]float64, d)
	for j := range hi {
		hi[j] = 1
	}
	X = stats.LatinHypercube(rng, lo, hi, n)
	y = make([]float64, n)
	for i, x := range X {
		s := 0.0
		for j, v := range x {
			s += math.Sin(3*v + float64(j))
		}
		y[i] = s + 0.01*rng.NormFloat64()
	}
	return X, y, lo, hi
}

// GPFit measures hyperparameter training: a 64-point, 6-dimensional SEARD fit
// with 4 L-BFGS restarts fanned across the given worker count.
func GPFit(workers int) func(*testing.B) {
	return func(b *testing.B) {
		X, y, _, _ := dataset(1, 64, 6)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(7))
			if _, err := gp.Fit(X, y, gp.Config{
				Kernel:   kernel.NewSEARD(6),
				Restarts: 4,
				MaxIter:  25,
				Workers:  workers,
			}, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// GPFitNARGP measures the fusion model's high-fidelity training at the
// power amplifier's shape: a 15-point NARGP fit over 5 design variables plus
// the augmented lower-fidelity coordinate, 2 L-BFGS restarts, run serially.
func GPFitNARGP() func(*testing.B) {
	return func(b *testing.B) {
		X5, yl, _, _ := dataset(4, 15, 5)
		X := make([][]float64, len(X5))
		y := make([]float64, len(X5))
		for i, x := range X5 {
			X[i] = append(append([]float64(nil), x...), yl[i])
			y[i] = yl[i]*yl[i] + math.Cos(2*x[0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(7))
			if _, err := gp.Fit(X, y, gp.Config{
				Kernel:   kernel.NewNARGP(5),
				Restarts: 2,
				MaxIter:  100,
				Workers:  1,
			}, rng); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// MSP measures acquisition maximization: 24 concurrent local searches of the
// weighted-EI surface over a fitted surrogate.
func MSP(workers int) func(*testing.B) {
	return func(b *testing.B) {
		X, y, lo, hi := dataset(2, 48, 4)
		rng := rand.New(rand.NewSource(9))
		m, err := gp.Fit(X, y, gp.Config{
			Kernel: kernel.NewSEARD(4), MaxIter: 30, Workers: 1,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		best := math.Inf(1)
		for _, v := range y {
			if v < best {
				best = v
			}
		}
		a := acq.WEI(func(x []float64) (float64, float64) { return m.PredictLatent(x) }, nil, best)
		box := optimize.NewBox(lo, hi)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(11))
			optimize.MaximizeMSP(r, a, box, X[0], nil, optimize.MSPConfig{
				Starts: 24, LocalIter: 40,
			}, workers)
		}
	}
}

// PredictSingle measures the steady-state per-point prediction cost of the
// fused model — the allocation-lean path behind every acquisition call.
func PredictSingle() func(*testing.B) {
	return func(b *testing.B) {
		m, grid := fittedMF(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Predict(grid[i%len(grid)])
		}
	}
}

// fittedMF builds the shared two-fidelity surrogate and prediction grid.
func fittedMF(b *testing.B) (*mfgp.MultiLevel, [][]float64) {
	Xl, yl, lo, hi := dataset(3, 60, 3)
	rng := rand.New(rand.NewSource(13))
	Xh := stats.LatinHypercube(rng, lo, hi, 16)
	yh := make([]float64, len(Xh))
	for i, x := range Xh {
		s := 0.0
		for j, v := range x {
			s += math.Sin(3*v + float64(j))
		}
		yh[i] = 1.1*s + 0.05
	}
	m, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
		MaxIter: 30, Workers: 1,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	grid := stats.LatinHypercube(rand.New(rand.NewSource(17)), lo, hi, 512)
	return m, grid
}

// FusedPredict measures one fused posterior of the shape the poweramp
// engine evaluates inside its acquisition loop: 5 design variables, 40
// low-fidelity and 20 high-fidelity points, and a 30-node Monte-Carlo
// propagation cloud (the default sample count). It is the per-layer
// workload behind optimize.msp's self time.
func FusedPredict() func(*testing.B) {
	return func(b *testing.B) {
		m, _, lo, hi := powerampChain(b)
		grid := stats.LatinHypercube(rand.New(rand.NewSource(31)), lo, hi, 256)
		m.Predict(grid[0]) // warm the scratch pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Predict(grid[i%len(grid)])
		}
	}
}

// powerampChain fits the poweramp-shaped fused chain of FusedPredict and
// MSPFused and returns it with its high-fidelity targets and the box.
func powerampChain(b *testing.B) (m *mfgp.MultiLevel, yh, lo, hi []float64) {
	const d = 5
	Xl, yl, lo, hi := dataset(23, 40, d)
	rng := rand.New(rand.NewSource(29))
	Xh := stats.LatinHypercube(rng, lo, hi, 20)
	yh = make([]float64, len(Xh))
	for i, x := range Xh {
		s := 0.0
		for j, v := range x {
			s += math.Sin(3*v + float64(j))
		}
		yh[i] = 1.1*s + 0.2*s*s
	}
	m, err := mfgp.Fit(Xl, yl, Xh, yh, mfgp.MultiLevelConfig{
		MaxIter: 30, NumSamples: 30, Workers: 1,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return m, yh, lo, hi
}

// MSPFused measures one target-rung acquisition maximization as the
// engine-poweramp workload runs it: wEI over the fused posterior of the
// poweramp-shaped chain, 8 starts of 30 L-BFGS iterations, serial. From the
// optimize.msp span it reports the L-BFGS objective calls per maximization:
// grad_evals/op, each 2d central-difference fused predictions, and
// value_evals/op, one fused prediction each.
func MSPFused() func(*testing.B) {
	return func(b *testing.B) {
		m, yh, lo, hi := powerampChain(b)
		best := math.Inf(1)
		for _, v := range yh {
			best = math.Min(best, v)
		}
		a := acq.WEI(func(x []float64) (float64, float64) { return m.PredictLevel(x, 1) }, nil, best)
		box := optimize.NewBox(lo, hi)
		ring := telemetry.NewRing(4)
		tr := telemetry.NewTracer(ring, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := tr.Start("bench")
			optimize.MaximizeMSP(rand.New(rand.NewSource(37)), a, box, nil, nil, optimize.MSPConfig{
				Starts: 8, LocalIter: 30, Span: root,
			}, 1)
			root.End()
		}
		b.StopTimer()
		for _, ev := range ring.Snapshot() {
			if ev.Span != nil && ev.Span.Name == "optimize.msp" {
				b.ReportMetric(ev.Span.Attrs["grad_evals"], "grad_evals/op")
				b.ReportMetric(ev.Span.Attrs["value_evals"], "value_evals/op")
				return
			}
		}
		b.Fatal("no optimize.msp span recorded")
	}
}

// Cholesky measures the blocked factorization on an n×n SPD Gram matrix with
// the reusable-buffer entry point — the inner solver of every surrogate fit.
func Cholesky(n int) func(*testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(19))
		g := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		a := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += g.At(i, k) * g.At(j, k)
				}
				if i == j {
					s += float64(n)
				}
				a.Set(i, j, s)
				a.Set(j, i, s)
			}
		}
		var reuse *linalg.Cholesky
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := linalg.NewCholeskyReuse(a, reuse)
			if err != nil {
				b.Fatal(err)
			}
			reuse = c
		}
	}
}

// BenchmarkGPPredict measures one single-fidelity posterior: a 100-point,
// 2-dimensional SEARD model queried at a fixed point.
func BenchmarkGPPredict(b *testing.B) {
	X, y, _, _ := dataset(37, 100, 2)
	m, err := gp.Fit(X, y, gp.Config{Kernel: kernel.NewSEARD(2), Restarts: 1},
		rand.New(rand.NewSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictLatent(x)
	}
}

// paDesign is a mid-range power-amplifier design; cpDesign sizes every
// charge-pump transistor at W = 10, L = 0.2.
var paDesign = []float64{12.94, 0.77, 0.42, 1.66, 1.5}

func cpDesign(cp *testbench.ChargePump) []float64 {
	x := make([]float64, cp.Dim())
	for k := 0; k < cp.Dim()/2; k++ {
		x[2*k], x[2*k+1] = 10, 0.2
	}
	return x
}

func BenchmarkPowerAmpHighFidelity(b *testing.B) {
	pa := testbench.NewPowerAmp()
	for i := 0; i < b.N; i++ {
		pa.Simulate(paDesign, problem.High)
	}
}

func BenchmarkPowerAmpLowFidelity(b *testing.B) {
	pa := testbench.NewPowerAmp()
	for i := 0; i < b.N; i++ {
		pa.Simulate(paDesign, problem.Low)
	}
}

func BenchmarkChargePumpHighFidelity(b *testing.B) {
	cp := testbench.NewChargePump()
	x := cpDesign(cp)
	for i := 0; i < b.N; i++ {
		cp.Simulate(x, problem.High)
	}
}

func BenchmarkChargePumpLowFidelity(b *testing.B) {
	cp := testbench.NewChargePump()
	x := cpDesign(cp)
	for i := 0; i < b.N; i++ {
		cp.Simulate(x, problem.Low)
	}
}
