package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/parallel"
)

// augmentedSet builds n points (x, f(x)) over [0,1]^d × R with a nonlinear
// target, the shape of a fused level's training set.
func augmentedSet(seed int64, n, d int) (X [][]float64, y []float64) {
	X, base, _, _ := trainSet(seed, n, d)
	y = make([]float64, n)
	for i, x := range X {
		X[i] = append(append([]float64(nil), x...), base[i])
		y[i] = (x[0] - math.Sqrt2) * base[i] * base[i]
	}
	return X, y
}

// checkAugmented compares PredictLatentAugmented against PredictLatent on
// every augmented point, bit for bit.
func checkAugmented(t *testing.T, m *Model, x, ts []float64) {
	t.Helper()
	means, vars := make([]float64, len(ts)), make([]float64, len(ts))
	m.PredictLatentAugmented(x, ts, means, vars)
	aug := append(append([]float64(nil), x...), 0)
	for s, tv := range ts {
		aug[len(x)] = tv
		mu, va := m.PredictLatent(aug)
		if math.Float64bits(mu) != math.Float64bits(means[s]) || math.Float64bits(va) != math.Float64bits(vars[s]) {
			t.Fatalf("t=%v: batched (%v, %v) != per-point (%v, %v)", tv, means[s], vars[s], mu, va)
		}
	}
}

// cloud returns S values spread around a posterior mean, like mfgp's
// propagation nodes mu + sd·z.
func cloud(rng *rand.Rand, s int) []float64 {
	mu, sd := rng.NormFloat64(), 0.1+rng.Float64()
	ts := make([]float64, s)
	for i := range ts {
		ts[i] = mu + sd*rng.NormFloat64()
	}
	return ts
}

func TestPredictLatentAugmentedMatchesPerPoint(t *testing.T) {
	cases := []struct {
		name     string
		d, n     int
		kern     func(d int) kernel.Kernel
		inducing int
		appends  int // rows appended after the first prediction
		truncate bool
	}{
		{name: "nargp-1d", d: 1, n: 15, kern: nargp},
		{name: "nargp-5d", d: 5, n: 20, kern: nargp},
		{name: "grown-past-pool", d: 3, n: 12, kern: nargp, appends: 9},
		{name: "truncated", d: 3, n: 12, kern: nargp, appends: 9, truncate: true},
		{name: "low-rank", d: 2, n: 30, kern: nargp, inducing: 10},
		{name: "low-rank-grown", d: 2, n: 30, kern: nargp, inducing: 10, appends: 5},
		{name: "no-split-kernel", d: 3, n: 15, kern: func(d int) kernel.Kernel { return kernel.NewSEARD(d + 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := augmentedSet(int64(7+tc.d), tc.n+tc.appends, tc.d)
			rng := rand.New(rand.NewSource(int64(tc.n)))
			m, err := Fit(X[:tc.n], y[:tc.n], Config{
				Kernel: tc.kern(tc.d), MaxIter: 30, Inducing: tc.inducing,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			x := X[0][:tc.d]
			checkAugmented(t, m, x, cloud(rng, 30)) // sizes the pooled scratch
			for i := tc.n; i < tc.n+tc.appends; i++ {
				if err := m.AppendObservation(X[i], y[i]); err != nil {
					t.Fatal(err)
				}
			}
			if tc.truncate {
				if err := m.Truncate(tc.n + 2); err != nil {
					t.Fatal(err)
				}
			}
			for trial := 0; trial < 5; trial++ {
				x := append([]float64(nil), X[rng.Intn(len(X))][:tc.d]...)
				x[0] += 0.05 * rng.NormFloat64()
				checkAugmented(t, m, x, cloud(rng, 1+rng.Intn(40)))
			}
			checkAugmented(t, m, x, nil)
			// Larger than every cloud of this package's tests, so the
			// pooled block has to grow after it was sized.
			checkAugmented(t, m, x, cloud(rng, 100))
		})
	}
}

func nargp(d int) kernel.Kernel { return kernel.NewNARGP(d) }

// TestNARGPProfileSplits: the eq. (9) kernel takes the shared-x path; if its
// profile stopped satisfying splitProfile, fused predictions would fall back
// to the per-point path silently.
func TestNARGPProfileSplits(t *testing.T) {
	if _, ok := kernel.NewNARGP(3).Profile().(splitProfile); !ok {
		t.Fatal("kernel.NARGP's profile does not implement splitProfile")
	}
}

// TestPredictLatentAugmentedConcurrent runs many callers on one model (run it
// under -race): the pooled scratch must never be shared between goroutines.
func TestPredictLatentAugmentedConcurrent(t *testing.T) {
	const d, workers, calls = 3, 8, 20
	X, y := augmentedSet(3, 18, d)
	m, err := Fit(X, y, Config{Kernel: kernel.NewNARGP(d), MaxIter: 20}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xs, tss := make([][]float64, workers*calls), make([][]float64, workers*calls)
	want := make([][]float64, len(xs))
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		tss[i] = cloud(rng, 30)
		means, vars := make([]float64, 30), make([]float64, 30)
		m.PredictLatentAugmented(xs[i], tss[i], means, vars)
		want[i] = append(means, vars...)
	}
	var wg sync.WaitGroup
	errs := make(chan int, len(xs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			means, vars := make([]float64, 30), make([]float64, 30)
			for c := 0; c < calls; c++ {
				i := (w*calls + c*7) % len(xs)
				m.PredictLatentAugmented(xs[i], tss[i], means, vars)
				for s := range means {
					if means[s] != want[i][s] || vars[s] != want[i][30+s] {
						errs <- i
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Fatalf("concurrent prediction %d differs from the serial one", i)
	}
}

// TestPredictLatentAugmentedAllocatesNothing alternates two models of
// different sizes: they share the pooled cloud block, which once grown
// serves both without allocating.
func TestPredictLatentAugmentedAllocatesNothing(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("race runtime defeats sync.Pool reuse; alloc counts only hold without -race")
	}
	X, y := augmentedSet(9, 33, 5)
	small, err := Fit(X[:20], y[:20], Config{Kernel: kernel.NewNARGP(5), MaxIter: 20}, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	large, err := Fit(X, y, Config{Kernel: kernel.NewNARGP(5), MaxIter: 20}, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	ts := cloud(rand.New(rand.NewSource(11)), 30)
	means, vars := make([]float64, 30), make([]float64, 30)
	x := X[3][:5]
	both := func() {
		small.PredictLatentAugmented(x, ts, means, vars)
		large.PredictLatentAugmented(x, ts, means, vars)
	}
	both()
	if allocs := testing.AllocsPerRun(100, both); allocs != 0 {
		t.Fatalf("alternating PredictLatentAugmented allocates %.1f objects per pair of calls; want 0", allocs)
	}
}
