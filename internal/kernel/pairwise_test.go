package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
)

// profileKernels enumerates the two production kernels and the test
// combinators with a fresh instance per call.
func profileKernels(d int) map[string]kernel.Kernel {
	return map[string]kernel.Kernel{
		"seard":   kernel.NewSEARD(d),
		"sum":     kerneltest.NewSum(kernel.NewSEARD(d), kernel.NewSEARD(d)),
		"product": kerneltest.NewProduct(kernel.NewSEARD(d), kernel.NewSEARD(d)),
		"slice":   kerneltest.NewSlice(kernel.NewSEARD(d-1), 1, d, d),
		"nargp":   kernel.NewNARGP(d - 1),
	}
}

func TestProfileBitIdenticalToDirect(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(7))
	for name, k := range profileKernels(d) {
		t.Run(name, func(t *testing.T) {
			nh := k.NumHyper()
			var rp kernel.PairProfile // one profile refreshed across trials
			for trial := 0; trial < 20; trial++ {
				h := make([]float64, nh)
				lo, hi := kernel.BoundsVectors(k)
				for j := range h {
					h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
				}
				k.SetHyper(h)
				p := k.Profile()
				if p.NumHyper() != nh {
					t.Fatalf("%s: profile NumHyper %d != %d", name, p.NumHyper(), nh)
				}
				prev := rp
				rp = kernel.RefreshProfile(k, rp)
				if reuses := name == "seard" || name == "nargp"; reuses && prev != nil && rp != prev {
					t.Fatalf("%s trial %d: RefreshProfile built a new profile", name, trial)
				}
				x1 := make([]float64, d)
				x2 := make([]float64, d)
				diff := make([]float64, d)
				for j := 0; j < d; j++ {
					x1[j] = rng.NormFloat64()
					x2[j] = rng.NormFloat64()
					diff[j] = x1[j] - x2[j]
				}
				gDirect := make([]float64, nh)
				gProf := make([]float64, nh)
				if got, want := p.Eval(diff), k.Eval(x1, x2); got != want {
					t.Fatalf("%s trial %d: profile Eval %v != direct %v", name, trial, got, want)
				}
				vd := k.EvalGrad(x1, x2, gDirect)
				vp := p.EvalGrad(diff, gProf)
				if vp != vd {
					t.Fatalf("%s trial %d: profile EvalGrad %v != direct %v", name, trial, vp, vd)
				}
				for j := range gDirect {
					if gProf[j] != gDirect[j] {
						t.Fatalf("%s trial %d: grad[%d] profile %v != direct %v",
							name, trial, j, gProf[j], gDirect[j])
					}
				}
				gRef := make([]float64, nh)
				if got, want := rp.EvalGrad(diff, gRef), vd; got != want {
					t.Fatalf("%s trial %d: refreshed profile EvalGrad %v != direct %v", name, trial, got, want)
				}
				for j := range gDirect {
					if gRef[j] != gDirect[j] {
						t.Fatalf("%s trial %d: grad[%d] refreshed profile %v != direct %v",
							name, trial, j, gRef[j], gDirect[j])
					}
				}
				if got, want := rp.Eval(diff), p.Eval(diff); got != want {
					t.Fatalf("%s trial %d: refreshed profile Eval %v != fresh %v", name, trial, got, want)
				}
				// Zero-distance pair (diagonal of a covariance matrix).
				if got, want := p.Eval(make([]float64, d)), k.Eval(x1, x1); got != want {
					t.Fatalf("%s trial %d: diagonal profile %v != direct %v", name, trial, got, want)
				}
			}
		})
	}
}

func TestProfileSnapshotsHyperparameters(t *testing.T) {
	k := kernel.NewSEARD(2)
	k.SetHyper([]float64{0.3, -0.2, 0.1})
	p := k.Profile()
	x1 := []float64{0.5, -1.2}
	x2 := []float64{-0.3, 0.7}
	diff := []float64{x1[0] - x2[0], x1[1] - x2[1]}
	before := p.Eval(diff)
	k.SetHyper([]float64{1.1, 0.4, -0.9})
	if got := p.Eval(diff); got != before {
		t.Fatalf("profile tracked SetHyper: %v != snapshot %v", got, before)
	}
	if fresh := k.Profile().Eval(diff); fresh != k.Eval(x1, x2) {
		t.Fatalf("fresh profile %v != direct %v", fresh, k.Eval(x1, x2))
	}
}
