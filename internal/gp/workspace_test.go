package gp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// TestNLMLValueMemo checks the fit workspace's same-point memo on both
// kernels: nlmlValue equals nlmlGrad's value bit for bit, the gradient that
// starts from the memo equals one computed from scratch, a memo hit
// allocates nothing, a SetHyper or log-noise change invalidates it, and a
// miss on a warm workspace allocates nothing either, with or without the
// gradient that follows it. A warm workspace's gradient allocates nothing:
// its pair gradients live in a pooled buffer.
func TestNLMLValueMemo(t *testing.T) {
	for _, c := range []struct {
		name string
		kern kernel.Kernel
	}{
		{"se-ard", kernel.NewSEARD(3)},
		{"nargp", kernel.NewNARGP(2)},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			n, dim := 12, c.kern.Dim()
			xs := make([][]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = make([]float64, dim)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64()
				}
				ys[i] = rng.NormFloat64()
			}
			geo := newPairGeo(xs)
			nk := c.kern.NumHyper()
			hyperAt := func(shift float64) []float64 {
				h := make([]float64, nk)
				for j := range h {
					h[j] = 0.1*float64(j%3) - 0.2 + shift
				}
				return h
			}
			// fresh evaluates value and gradient on a new workspace, where
			// the memo cannot help.
			fresh := func(hyper []float64, logNoise float64) (float64, []float64) {
				w := newFitWorkspace(c.kern, geo, ys)
				w.kern.SetHyper(hyper)
				w.logNoise = logNoise
				v, g, err := w.nlmlGrad()
				if err != nil {
					t.Fatal(err)
				}
				return v, append([]float64(nil), g...)
			}
			sameValue := func(label string, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %v, want %v", label, got, want)
				}
			}

			w := newFitWorkspace(c.kern, geo, ys)
			h1, noise1 := hyperAt(0), math.Log(0.1)
			w.kern.SetHyper(h1)
			w.logNoise = noise1
			v, err := w.nlmlValue()
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(10, func() { w.nlmlValue() }); allocs != 0 {
				t.Fatalf("memo hit allocated %v times", allocs)
			}
			gv, g, err := w.nlmlGrad()
			if err != nil {
				t.Fatal(err)
			}
			wantV, wantG := fresh(h1, noise1)
			sameValue("nlmlGrad after nlmlValue", gv, v)
			sameValue("memoized value vs fresh", v, wantV)
			if !linalg.SameBits(g, wantG) {
				t.Fatalf("gradient from the memo %v, from scratch %v", g, wantG)
			}
			// The gradient's pair buffer comes from a sync.Pool, whose items
			// the race runtime drops at random: its alloc counts only hold
			// without -race.
			grad := func() {
				if _, _, err := w.nlmlGrad(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(10, grad); allocs != 0 && !parallel.RaceEnabled {
				t.Fatalf("gradient on a warm workspace allocated %v times", allocs)
			}

			h2 := hyperAt(0.3)
			w.kern.SetHyper(h2)
			v2, err := w.nlmlValue()
			if err != nil {
				t.Fatal(err)
			}
			want2, _ := fresh(h2, noise1)
			sameValue("after SetHyper", v2, want2)
			if v2 == v {
				t.Fatal("SetHyper left the value unchanged")
			}

			noise2 := math.Log(0.3)
			w.logNoise = noise2
			v3, g3, err := w.nlmlGrad()
			if err != nil {
				t.Fatal(err)
			}
			want3, wantG3 := fresh(h2, noise2)
			sameValue("after a noise change", v3, want3)
			if v3 == v2 || !linalg.SameBits(g3, wantG3) {
				t.Fatalf("noise change: value %v (was %v), gradient %v, want %v", v3, v2, g3, wantG3)
			}

			// The workspace is warm: a miss refreshes the kept profile and
			// refactorizes in place, allocating nothing.
			flip := false
			miss := func() {
				flip = !flip
				if flip {
					w.kern.SetHyper(h1)
				} else {
					w.kern.SetHyper(h2)
				}
				if _, err := w.nlmlValue(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(10, miss); allocs != 0 {
				t.Fatalf("memo miss allocated %v times", allocs)
			}
			missGrad := func() {
				miss()
				if _, _, err := w.nlmlGrad(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(10, missGrad); allocs != 0 && !parallel.RaceEnabled {
				t.Fatalf("memo miss and gradient allocated %v times", allocs)
			}
			// After the misses, the refreshed profile still serves the
			// same-point gradient.
			w.kern.SetHyper(h1)
			v4, err := w.nlmlValue()
			if err != nil {
				t.Fatal(err)
			}
			_, g4, err := w.nlmlGrad()
			if err != nil {
				t.Fatal(err)
			}
			want4, wantG4 := fresh(h1, noise2)
			sameValue("after misses", v4, want4)
			if !linalg.SameBits(g4, wantG4) {
				t.Fatalf("gradient after misses %v, from scratch %v", g4, wantG4)
			}
		})
	}
}

// referenceNLMLGrad is the NLML gradient computed without pair factors or a
// blocked inverse: the direct Kernel.Eval fills the whole covariance, K⁻¹ is
// one SolveVecInto per unit vector, and the direct Kernel.EvalGrad runs on
// every (i, j) of the full matrix in row-major order.
func referenceNLMLGrad(kern kernel.Kernel, xs [][]float64, ys []float64, logNoise float64) (float64, []float64, error) {
	n := len(ys)
	nk := kern.NumHyper()
	noise2 := math.Exp(2 * logNoise)
	K := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			K.Set(i, j, kern.Eval(xs[i], xs[j]))
		}
		K.Add(i, i, noise2)
	}
	chol, err := linalg.NewCholesky(K)
	if err != nil {
		return 0, nil, err
	}
	alpha := chol.SolveVec(ys)
	nlml := 0.5*linalg.Dot(ys, alpha) + 0.5*chol.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	kinv := linalg.NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		chol.SolveVecInto(e, e)
		for i := 0; i < n; i++ {
			kinv.Set(i, j, e[i])
		}
	}
	out := make([]float64, nk+1)
	g := make([]float64, nk)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kern.EvalGrad(xs[i], xs[j], g)
			wij := kinv.At(i, j) - alpha[i]*alpha[j]
			for h := 0; h < nk; h++ {
				out[h] += wij * g[h]
			}
		}
	}
	for h := 0; h < nk; h++ {
		out[h] *= 0.5
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += kinv.At(i, i) - alpha[i]*alpha[i]
	}
	out[nk] = 0.5 * s * 2 * noise2
	return nlml, out, nil
}

// TestNLMLGradMatchesReference requires the workspace's value and gradient
// to equal referenceNLMLGrad bit for bit on every kernel shape, at random
// and bound hyperparameters (where pair factors underflow to 0), both on a
// fresh workspace and on one warmed by earlier points, memo misses and a
// repeated gradient at the same point.
func TestNLMLGradMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		kern func() kernel.Kernel
	}{
		{"se-ard-d1", func() kernel.Kernel { return kernel.NewSEARD(1) }},
		{"se-ard-d5", func() kernel.Kernel { return kernel.NewSEARD(5) }},
		{"nargp-d5", func() kernel.Kernel { return kernel.NewNARGP(5) }},
		{"sum", func() kernel.Kernel { return kerneltest.NewSum(kernel.NewSEARD(3), kernel.NewSEARD(3)) }},
		{"product", func() kernel.Kernel { return kerneltest.NewProduct(kernel.NewSEARD(3), kernel.NewSEARD(3)) }},
	} {
		for _, n := range []int{1, 2, 17, 40} {
			t.Run(c.name+"/n="+strconv.Itoa(n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(97 + n)))
				kern := c.kern()
				dim, nk := kern.Dim(), kern.NumHyper()
				xs := make([][]float64, n)
				ys := make([]float64, n)
				for i := range xs {
					xs[i] = make([]float64, dim)
					for j := range xs[i] {
						xs[i][j] = rng.NormFloat64()
					}
					ys[i] = rng.NormFloat64()
				}
				geo := newPairGeo(xs)
				lo, hi := kernel.BoundsVectors(kern)
				type point struct {
					hyper    []float64
					logNoise float64
				}
				var points []point
				for _, setting := range []string{"lo", "hi", "mixed", "random", "random", "random"} {
					h := make([]float64, nk)
					for j := range h {
						switch {
						case setting == "lo" || setting == "mixed" && j%2 == 0:
							h[j] = lo[j]
						case setting == "hi" || setting == "mixed":
							h[j] = hi[j]
						default:
							h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
						}
					}
					logNoise := minLogNoise + rng.Float64()*(maxLogNoise-minLogNoise)
					points = append(points, point{h, logNoise})
				}

				compared := 0
				check := func(label string, w *fitWorkspace, pt point) {
					t.Helper()
					kern.SetHyper(pt.hyper)
					wantV, wantG, wantErr := referenceNLMLGrad(kern, xs, ys, pt.logNoise)
					v, g, err := w.nlmlGrad()
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
					}
					if err != nil {
						return
					}
					compared++
					if math.Float64bits(v) != math.Float64bits(wantV) {
						t.Fatalf("%s: value %v, reference %v", label, v, wantV)
					}
					if !linalg.SameBits(g, wantG) {
						t.Fatalf("%s: gradient %v, reference %v", label, g, wantG)
					}
				}
				at := func(w *fitWorkspace, pt point) {
					w.kern.SetHyper(pt.hyper)
					w.logNoise = pt.logNoise
				}

				warm := newFitWorkspace(kern, geo, ys)
				for k, pt := range points {
					fresh := newFitWorkspace(kern, geo, ys)
					at(fresh, pt)
					check("fresh point "+strconv.Itoa(k), fresh, pt)

					// A miss at the next point overwrites the pair
					// factors; the miss back makes them this point's again.
					at(warm, points[(k+1)%len(points)])
					warm.nlmlValue()
					at(warm, pt)
					warm.nlmlValue()
					check("warm point "+strconv.Itoa(k), warm, pt)
					// A memo hit, with K already overwritten by K⁻¹.
					check("warm repeat "+strconv.Itoa(k), warm, pt)
				}
				if compared == 0 {
					t.Fatal("every point failed to factorize; nothing was compared")
				}
			})
		}
	}
}
