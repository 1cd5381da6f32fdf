package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// TestNLMLValueMemo checks the fit workspace's same-point memo on both
// kernels: nlmlValue equals nlmlGrad's value bit for bit, the gradient that
// starts from the memo equals one computed from scratch, a memo hit
// allocates nothing, a SetHyper or log-noise change invalidates it, and a
// miss on a warm workspace allocates nothing either.
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
