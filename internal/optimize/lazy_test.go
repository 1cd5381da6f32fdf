package optimize

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// eager wraps f so that every call computes the gradient, the way L-BFGS
// evaluated trial points before it asked for gradients lazily.
func eager(f Objective, n int) Objective {
	scratch := make([]float64, n)
	return func(x, grad []float64) float64 {
		if grad == nil {
			grad = scratch
		}
		return f(x, grad)
	}
}

// mspShaped builds an MSP-shaped local search: a multimodal surface read
// through the logit box transform with central-difference gradients, as
// MinimizeInBox runs it.
func mspShaped() Objective {
	box := NewBox([]float64{-2, -2}, []float64{2, 2})
	x := make([]float64, 2)
	return NumericalGradient(func(t []float64) float64 {
		box.fromUnconstrainedInto(x, t)
		return -multimodal(x)
	}, 1e-6)
}

// TestLazyLBFGSMatchesEager is the oracle of the lazy line search: skipping
// the gradients of rejected trial points, and answering the accepted ones
// from the objective's same-point memo, walks the same trajectory to the
// last bit as computing every gradient.
func TestLazyLBFGSMatchesEager(t *testing.T) {
	cases := []struct {
		name    string
		f       func() Objective
		x0      []float64
		maxIter int
	}{
		{"rosenbrock", func() Objective { return rosen }, []float64{-1.2, 1}, 500},
		{"rosenbrock-far", func() Objective { return rosen }, []float64{3, -4}, 500},
		{"msp-shaped", mspShaped, []float64{0.4, -1.1}, 30},
		{"msp-shaped-edge", mspShaped, []float64{-7, 9}, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lazy := LBFGS(c.f(), c.x0, LBFGSConfig{MaxIter: c.maxIter})
			ref := LBFGS(eager(c.f(), len(c.x0)), c.x0, LBFGSConfig{MaxIter: c.maxIter})
			if !linalg.SameBits(lazy.X, ref.X) || math.Float64bits(lazy.F) != math.Float64bits(ref.F) ||
				lazy.Iters != ref.Iters || !linalg.SameBits(lazy.Gradient, ref.Gradient) {
				t.Fatalf("lazy (x=%v f=%v iters=%d) differs from eager (x=%v f=%v iters=%d)",
					lazy.X, lazy.F, lazy.Iters, ref.X, ref.F, ref.Iters)
			}
			if lazy.GradEvals > lazy.ValueEvals+1 {
				t.Fatalf("%d gradients for %d value-only trials", lazy.GradEvals, lazy.ValueEvals)
			}
		})
	}
}

// call is one recorded objective call.
type call struct {
	x    []float64
	f    float64
	grad bool
}

// recording wraps f and appends every call to *log.
func recording(f Objective, log *[]call) Objective {
	return func(x, grad []float64) float64 {
		v := f(x, grad)
		*log = append(*log, call{x: append([]float64(nil), x...), f: v, grad: grad != nil})
		return v
	}
}

// TestLBFGSAsksGradientAfterValue pins the Objective call pattern the
// same-point memos rely on: the gradient is asked for first at the start
// point, and after that only right after a value-only call at the
// bitwise-same point.
func TestLBFGSAsksGradientAfterValue(t *testing.T) {
	for _, c := range []struct {
		name string
		f    Objective
		x0   []float64
	}{
		{"rosenbrock", rosen, []float64{-1.2, 1}},
		{"msp-shaped", mspShaped(), []float64{0.4, -1.1}},
	} {
		var log []call
		r := LBFGS(recording(c.f, &log), c.x0, LBFGSConfig{MaxIter: 200})
		if len(log) == 0 || !log[0].grad || !linalg.SameBits(log[0].x, c.x0) {
			t.Fatalf("%s: first call must ask the gradient at x0", c.name)
		}
		grads, values := 0, 0
		for i, e := range log {
			if !e.grad {
				values++
				continue
			}
			grads++
			if i == 0 {
				continue
			}
			if prev := log[i-1]; prev.grad || !linalg.SameBits(prev.x, e.x) ||
				math.Float64bits(prev.f) != math.Float64bits(e.f) {
				t.Fatalf("%s: gradient call %d at %v does not follow a value-only call at that point", c.name, i, e.x)
			}
		}
		if grads != r.GradEvals || values != r.ValueEvals {
			t.Fatalf("%s: Result counts %d/%d, recorded %d/%d", c.name, r.ValueEvals, r.GradEvals, values, grads)
		}
		if grads >= values+1 {
			t.Fatalf("%s: no trial was rejected on its value (%d gradients, %d values)", c.name, grads, values)
		}
	}
}

// TestWolfeGradientOnlyPastSufficientDecrease runs single line searches
// along x = a·e₀ from the origin, so each trial's step a is exactly its
// first coordinate, and checks that every trial whose gradient is asked for
// passed the sufficient-decrease test. The step sizes cover immediate
// acceptance, expansion and zoom.
func TestWolfeGradientOnlyPastSufficientDecrease(t *testing.T) {
	base := []float64{-1.2, 1}
	shifted := func(p, grad []float64) float64 {
		return rosen([]float64{base[0] + p[0], base[1] + p[1]}, grad)
	}
	x := []float64{0, 0}
	d := []float64{1, 0}
	g := make([]float64, 2)
	fx := shifted(x, g)
	dg := linalg.Dot(g, d)
	if dg >= 0 {
		t.Fatal("e₀ must be a descent direction")
	}
	for _, step0 := range []float64{1e-4, 1e-3, 0.05, 0.2, 1, 10} {
		var log []call
		ls := newLineSearch(recording(shifted, &log), make([]float64, 3*len(x)))
		_, _, _, ok := ls.wolfe(x, fx, g, d, dg, step0)
		if !ok {
			t.Fatalf("step0 %v: no Wolfe point", step0)
		}
		if ls.grads == 0 {
			t.Fatalf("step0 %v: accepted a point without its gradient", step0)
		}
		for _, e := range log {
			if a := e.x[0]; e.grad && e.f > fx+wolfeC1*a*dg {
				t.Fatalf("step0 %v: gradient asked at a=%v, which fails sufficient decrease", step0, a)
			}
		}
	}
}

// TestZoomFallbackKeepsAcceptedPoint drives zoom into its give-up path: on
// |x₀ − 0.3| the slope is ±1 everywhere, so the curvature condition never
// holds and 30 bisections end on the best sufficient-decrease point. zoom
// returns the value and gradient kept when that point was accepted, equal
// to a fresh evaluation there, and evaluates nothing beyond its trials.
func TestZoomFallbackKeepsAcceptedPoint(t *testing.T) {
	kink := func(p, grad []float64) float64 {
		if grad != nil {
			grad[0], grad[1] = math.Copysign(1, p[0]-0.3), 0
		}
		return math.Abs(p[0] - 0.3)
	}
	x := []float64{0, 0}
	d := []float64{1, 0}
	g := make([]float64, 2)
	fx := kink(x, g)
	var log []call
	ls := newLineSearch(recording(kink, &log), make([]float64, 3*len(x)))
	xn, fn, gn, ok := ls.wolfe(x, fx, g, d, linalg.Dot(g, d), 1)
	if !ok {
		t.Fatal("fallback must accept the best sufficient-decrease point")
	}
	if ls.values != 31 {
		t.Fatalf("%d value-only calls, want 1 line-search trial + 30 zoom trials", ls.values)
	}
	for i, e := range log {
		if e.grad && (i == 0 || log[i-1].grad || !linalg.SameBits(log[i-1].x, e.x)) {
			t.Fatalf("call %d asks a gradient at %v outside a trial", i, e.x)
		}
	}
	want := make([]float64, 2)
	wantF := kink(xn, want)
	if math.Float64bits(fn) != math.Float64bits(wantF) || !linalg.SameBits(gn, want) {
		t.Fatalf("fallback returned f=%v g=%v, fresh evaluation f=%v g=%v", fn, gn, wantF, want)
	}
}

// TestNumericalGradientMemo checks the same-point memo: the gradient call
// after a value-only call at the same point costs exactly 2d probes and
// matches a memo-less call bit for bit; at any other point the value is
// recomputed.
func TestNumericalGradientMemo(t *testing.T) {
	calls := 0
	f := func(p []float64) float64 {
		calls++
		return math.Sin(p[0]) + p[1]*p[1]*p[0] + math.Exp(p[2])
	}
	x := []float64{0.3, -1.7, 0.2}
	obj := NumericalGradient(f, 0)
	v := obj(x, nil)
	calls = 0
	g := make([]float64, 3)
	if gv := obj(x, g); math.Float64bits(gv) != math.Float64bits(v) {
		t.Fatalf("memoized value %v, value-only call %v", gv, v)
	}
	if calls != 2*len(x) {
		t.Fatalf("gradient after value-only call cost %d evaluations, want %d", calls, 2*len(x))
	}
	fresh := make([]float64, 3)
	if fv := NumericalGradient(f, 0)(x, fresh); math.Float64bits(fv) != math.Float64bits(v) || !linalg.SameBits(fresh, g) {
		t.Fatal("memoized gradient call differs from a memo-less one")
	}
	calls = 0
	obj([]float64{0.3, -1.7, 0.2000001}, g)
	if calls != 2*len(x)+1 {
		t.Fatalf("gradient at a new point cost %d evaluations, want %d", calls, 2*len(x)+1)
	}
}

// TestMSPLocalSearchReusesBuffers pins the allocation-free objective path of
// an MSP local search: the central-difference objective allocates nothing
// once warm, and MinimizeInBox hands f one box-coordinate buffer for the
// whole search.
func TestMSPLocalSearchReusesBuffers(t *testing.T) {
	obj := mspShaped()
	x := []float64{0.4, -1.1}
	g := make([]float64, 2)
	if allocs := testing.AllocsPerRun(10, func() {
		obj(x, nil)
		obj(x, g)
	}); allocs != 0 {
		t.Fatalf("value + gradient call allocated %v times", allocs)
	}

	box := NewBox([]float64{-2, -2}, []float64{2, 2})
	var first *float64
	calls := 0
	MinimizeInBox(func(p []float64) float64 {
		if calls == 0 {
			first = &p[0]
		} else if &p[0] != first {
			t.Fatalf("call %d got a fresh buffer", calls)
		}
		calls++
		return -multimodal(p)
	}, box, x, LBFGSConfig{MaxIter: 30})
	if calls < 10 {
		t.Fatalf("only %d objective calls", calls)
	}
}

// TestLBFGSIterationsAllocateNothing: every buffer of an L-BFGS run is
// allocated up front, so a call allocates as often at MaxIter 50 as at
// MaxIter 5, on a problem that stops early (the quadratic) and on one whose
// history ring wraps (Rosenbrock from far away).
func TestLBFGSIterationsAllocateNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		f    Objective
		x0   []float64
	}{
		{"quadratic", quadratic([]float64{1, -2, 3}), []float64{0, 0, 0}},
		{"rosenbrock", rosen, []float64{3, -4}},
	} {
		allocs := func(maxIter int) float64 {
			return testing.AllocsPerRun(20, func() { LBFGS(c.f, c.x0, LBFGSConfig{MaxIter: maxIter}) })
		}
		if r := LBFGS(c.f, c.x0, LBFGSConfig{MaxIter: 50}); c.name == "rosenbrock" && r.Iters <= 2*lbfgsMemory {
			t.Fatalf("%s: stopped after %d iterations; the check needs the history ring to wrap", c.name, r.Iters)
		}
		if a5, a50 := allocs(5), allocs(50); a5 != a50 {
			t.Fatalf("%s: %v allocations at MaxIter 5, %v at MaxIter 50", c.name, a5, a50)
		}
	}
}
