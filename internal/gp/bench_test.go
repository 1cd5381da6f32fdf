package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

// BenchmarkNLMLGrad measures the gradient half of one NLML evaluation on a
// warm fit workspace, the precision matrix and the pair-gradient pass,
// at the largest fits of the engine-poweramp workload: the rung-0 SE-ARD
// GPs over 5 design variables at 24 points and the eq. (9) NARGP GP over 5
// design variables plus the lower level's value at 29 points. The value
// half is a memo hit, as it is when L-BFGS asks for the gradient at a point
// whose value it has just accepted.
func BenchmarkNLMLGrad(b *testing.B) {
	for _, c := range []struct {
		name string
		kern kernel.Kernel
		n    int
	}{
		{"se-ard-d5-n24", kernel.NewSEARD(5), 24},
		{"nargp-d5-n29", kernel.NewNARGP(5), 29},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			dim := c.kern.Dim()
			xs := make([][]float64, c.n)
			ys := make([]float64, c.n)
			for i := range xs {
				xs[i] = make([]float64, dim)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64()
				}
				ys[i] = rng.NormFloat64()
			}
			w := newFitWorkspace(c.kern, newPairGeo(xs), ys)
			h := make([]float64, c.kern.NumHyper())
			for j := range h {
				h[j] = 0.3 * rng.NormFloat64()
			}
			w.kern.SetHyper(h)
			w.logNoise = math.Log(1e-2)
			if _, err := w.nlmlValue(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.nlmlGrad(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
