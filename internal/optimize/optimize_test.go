package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadratic is a simple strictly convex objective with known minimum.
func quadratic(center []float64) Objective {
	return func(x, grad []float64) float64 {
		f := 0.0
		for i := range x {
			d := x[i] - center[i]
			f += d * d
			if grad != nil {
				grad[i] = 2 * d
			}
		}
		return f
	}
}

// rosen is the 2-D Rosenbrock function with its analytic gradient.
func rosen(x, grad []float64) float64 {
	a, b := x[0], x[1]
	f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	if grad != nil {
		grad[0] = -2*(1-a) - 400*a*(b-a*a)
		grad[1] = 200 * (b - a*a)
	}
	return f
}

func TestLBFGSQuadratic(t *testing.T) {
	center := []float64{1, -2, 3}
	r := LBFGS(quadratic(center), []float64{0, 0, 0}, LBFGSConfig{})
	if !r.Converged {
		t.Fatalf("did not converge: %+v", r)
	}
	for i := range center {
		if math.Abs(r.X[i]-center[i]) > 1e-5 {
			t.Fatalf("x = %v, want %v", r.X, center)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	r := LBFGS(rosen, []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500})
	if math.Abs(r.X[0]-1) > 1e-4 || math.Abs(r.X[1]-1) > 1e-4 {
		t.Fatalf("Rosenbrock solution %v, f=%v", r.X, r.F)
	}
}

func TestLBFGSHighDimensional(t *testing.T) {
	d := 30
	center := make([]float64, d)
	for i := range center {
		center[i] = float64(i%5) - 2
	}
	x0 := make([]float64, d)
	r := LBFGS(quadratic(center), x0, LBFGSConfig{})
	for i := range center {
		if math.Abs(r.X[i]-center[i]) > 1e-4 {
			t.Fatalf("dim %d: %v vs %v", i, r.X[i], center[i])
		}
	}
}

func TestLBFGSDoesNotModifyStart(t *testing.T) {
	x0 := []float64{5, 5}
	LBFGS(quadratic([]float64{0, 0}), x0, LBFGSConfig{})
	if x0[0] != 5 || x0[1] != 5 {
		t.Fatal("LBFGS modified its starting point")
	}
}

func TestNumericalGradientMatchesAnalytic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		obj := NumericalGradient(func(p []float64) float64 {
			return math.Sin(p[0]) + p[1]*p[1]*p[0]
		}, 0)
		grad := make([]float64, 2)
		obj(x, grad)
		wantG0 := math.Cos(x[0]) + x[1]*x[1]
		wantG1 := 2 * x[1] * x[0]
		return math.Abs(grad[0]-wantG0) < 1e-4*(1+math.Abs(wantG0)) &&
			math.Abs(grad[1]-wantG1) < 1e-4*(1+math.Abs(wantG1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox([]float64{0, -1}, []float64{1, 1})
	if !b.Contains([]float64{0.5, 0}) || b.Contains([]float64{2, 0}) {
		t.Fatal("Contains wrong")
	}
	c := b.Clip([]float64{5, -5})
	if c[0] != 1 || c[1] != -1 {
		t.Fatalf("Clip = %v", c)
	}
}

func TestBoxPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBox([]float64{1}, []float64{0})
}

func TestBoxUnconstrainedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBox([]float64{0, -5}, []float64{1, 5})
		// Interior points only (transform is open-box).
		x := []float64{0.01 + 0.98*rng.Float64(), -4.9 + 9.8*rng.Float64()}
		back := b.FromUnconstrained(b.ToUnconstrained(x))
		return math.Abs(back[0]-x[0]) < 1e-9 && math.Abs(back[1]-x[1]) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxUnconstrainedStaysInside(t *testing.T) {
	b := NewBox([]float64{0}, []float64{1})
	for _, tv := range []float64{-100, -1, 0, 1, 100} {
		x := b.FromUnconstrained([]float64{tv})
		if x[0] < 0 || x[0] > 1 {
			t.Fatalf("FromUnconstrained(%v) = %v escaped box", tv, x)
		}
	}
	// Boundary points must map to finite values.
	tb := b.ToUnconstrained([]float64{0})
	if math.IsInf(tb[0], 0) || math.IsNaN(tb[0]) {
		t.Fatalf("boundary transform not finite: %v", tb)
	}
}

func TestMinimizeInBoxRespectsBounds(t *testing.T) {
	// Unconstrained minimum at 5, but box caps at 1: solution should push to
	// the upper boundary.
	b := NewBox([]float64{0}, []float64{1})
	f := func(x []float64) float64 { return (x[0] - 5) * (x[0] - 5) }
	r := MinimizeInBox(f, b, []float64{0.5}, LBFGSConfig{MaxIter: 100})
	if r.X[0] < 0.99 || r.X[0] > 1 {
		t.Fatalf("boundary solution %v, want ≈1", r.X)
	}
}

func TestMaximizeMSPFindsGlobalAmongLocals(t *testing.T) {
	// Two-peak function: taller peak at 0.8, shorter at 0.2.
	f := func(x []float64) float64 {
		return math.Exp(-100*(x[0]-0.8)*(x[0]-0.8)) + 0.5*math.Exp(-100*(x[0]-0.2)*(x[0]-0.2))
	}
	b := NewBox([]float64{0}, []float64{1})
	rng := rand.New(rand.NewSource(1))
	x, v := MaximizeMSP(rng, f, b, nil, nil, MSPConfig{Starts: 15}, 0)
	if math.Abs(x[0]-0.8) > 0.02 {
		t.Fatalf("MSP found %v (f=%v), want ≈0.8", x, v)
	}
}

func TestMaximizeMSPSeedsNearIncumbent(t *testing.T) {
	// A narrow peak at the incumbent: ten starts scattered uniformly often
	// land too far out to see its gradient, while the §4.1 ball (2% of the
	// box per coordinate) around the incumbent finds it on every seed.
	peak := []float64{0.513}
	f := func(x []float64) float64 {
		return math.Exp(-3e4 * (x[0] - peak[0]) * (x[0] - peak[0]))
	}
	b := NewBox([]float64{0}, []float64{1})
	uniformMisses := 0
	for seed := int64(1); seed <= 20; seed++ {
		if _, v := MaximizeMSP(rand.New(rand.NewSource(seed)), f, b, peak, nil, MSPConfig{Starts: 10}, 0); v < 0.5 {
			t.Fatalf("seed %d: incumbent seeding failed to find the narrow peak: f=%v", seed, v)
		}
		if _, v := MaximizeMSP(rand.New(rand.NewSource(seed)), f, b, nil, nil, MSPConfig{Starts: 10}, 0); v < 0.5 {
			uniformMisses++
		}
	}
	if uniformMisses == 0 {
		t.Fatal("uniform starts found the peak on every seed; it is too wide to test seeding")
	}
}

func TestDESphere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBox([]float64{-5, -5, -5}, []float64{5, 5, 5})
	f := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += (v - 1) * (v - 1)
		}
		return s
	}
	x, v := DE(rng, f, b, DEConfig{MaxGen: 200})
	if v > 1e-3 {
		t.Fatalf("DE failed on sphere: x=%v f=%v", x, v)
	}
}

func TestDEStaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := NewBox([]float64{0, 0}, []float64{1, 1})
	seen := 0
	f := func(x []float64) float64 {
		seen++
		if !b.Contains(x) {
			t.Fatalf("DE evaluated out-of-box point %v", x)
		}
		return x[0] + x[1]
	}
	DE(rng, f, b, DEConfig{PopSize: 10, MaxGen: 20})
	if seen == 0 {
		t.Fatal("DE never evaluated")
	}
}

func TestDERespectsEvalBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBox([]float64{0}, []float64{1})
	count := 0
	f := func(x []float64) float64 {
		count++
		return x[0]
	}
	DE(rng, f, b, DEConfig{PopSize: 8, MaxGen: 1000, MaxEvals: 50})
	if count != 50 {
		t.Fatalf("evals = %d, want exactly 50", count)
	}
}
