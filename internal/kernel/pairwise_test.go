package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/linalg"
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

// TestProfileBitIdenticalToDirect checks the PairProfile contract on every
// kernel, for a fresh profile and one refreshed in place, at random and
// bound hyperparameters, on a random pair and the zero-distance pair: Eval
// and EvalSplit equal the direct Eval, and GradFactors over the recorded
// factors equals the direct EvalGrad, all bit for bit.
func TestProfileBitIdenticalToDirect(t *testing.T) {
	const d = 4
	rng := rand.New(rand.NewSource(7))
	for name, k := range profileKernels(d) {
		t.Run(name, func(t *testing.T) {
			nh := k.NumHyper()
			lo, hi := kernel.BoundsVectors(k)
			var rp kernel.PairProfile // one profile refreshed across trials
			for trial := 0; trial < 20; trial++ {
				// Trials 0 and 1 sit on the bounds, where factors underflow.
				h := make([]float64, nh)
				for j := range h {
					switch trial {
					case 0:
						h[j] = lo[j]
					case 1:
						h[j] = hi[j]
					default:
						h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
					}
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
				for j := 0; j < d; j++ {
					x1[j] = rng.NormFloat64()
					x2[j] = rng.NormFloat64()
				}
				// The zero-distance pair is the diagonal of a covariance matrix.
				for _, b := range [][]float64{x2, x1} {
					diff := make([]float64, d)
					for j := range diff {
						diff[j] = x1[j] - b[j]
					}
					checkProfile(t, fmt.Sprintf("trial %d: fresh", trial), k, p, x1, b, diff)
					checkProfile(t, fmt.Sprintf("trial %d: refreshed", trial), k, rp, x1, b, diff)
				}
			}
		})
	}
}

// checkProfile requires p's Eval, EvalSplit and GradFactors on diff to
// equal k's direct Eval and EvalGrad on (x1, x2) bit for bit.
func checkProfile(t *testing.T, label string, k kernel.Kernel, p kernel.PairProfile, x1, x2, diff []float64) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	want := k.Eval(x1, x2)
	gWant := make([]float64, k.NumHyper())
	vWant := k.EvalGrad(x1, x2, gWant)
	if got := p.Eval(diff); !same(got, want) {
		t.Fatalf("%s profile Eval %v != direct %v", label, got, want)
	}
	f := make([]float64, p.NumFactors())
	if got := kernel.EvalSplit(p, diff, f); !same(got, want) {
		t.Fatalf("%s profile EvalSplit %v != direct Eval %v", label, got, want)
	}
	g := make([]float64, len(gWant))
	for j := range g {
		g[j] = math.NaN() // every entry must be written
	}
	if got := p.GradFactors(diff, f, g); !same(got, vWant) {
		t.Fatalf("%s profile GradFactors %v != direct EvalGrad %v", label, got, vWant)
	}
	for j := range g {
		if !same(g[j], gWant[j]) {
			t.Fatalf("%s profile grad[%d] %v != direct %v", label, j, g[j], gWant[j])
		}
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

// TestProfileSplitBatchMatchesDirect checks the three-step split the way
// package gp runs it: the exp arguments of many pairs written into one
// buffer, one linalg.ExpInto over all of them (whole blocks of four take the
// vector path where there is one), then FromFactors per pair. Every value
// equals the direct Eval and every factor the one EvalSplit leaves, bit
// for bit, on every kernel.
func TestProfileSplitBatchMatchesDirect(t *testing.T) {
	const d, pairs = 4, 37
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(11))
	for name, k := range profileKernels(d) {
		t.Run(name, func(t *testing.T) {
			lo, hi := kernel.BoundsVectors(k)
			for trial := 0; trial < 10; trial++ {
				h := make([]float64, k.NumHyper())
				for j := range h {
					h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
				}
				k.SetHyper(h)
				p := k.Profile()
				nf := p.NumFactors()
				x1, x2, diffs := make([][]float64, pairs), make([][]float64, pairs), make([][]float64, pairs)
				fact := make([]float64, pairs*nf)
				for q := range diffs {
					x1[q], x2[q], diffs[q] = make([]float64, d), make([]float64, d), make([]float64, d)
					for j := 0; j < d; j++ {
						x1[q][j], x2[q][j] = rng.NormFloat64(), rng.NormFloat64()
						if q == 0 {
							x2[q][j] = x1[q][j] // the zero-distance pair
						}
						diffs[q][j] = x1[q][j] - x2[q][j]
					}
					p.FactorArgs(diffs[q], fact[q*nf:q*nf+nf])
				}
				linalg.ExpInto(fact, fact)
				f := make([]float64, nf)
				for q := range diffs {
					fq := fact[q*nf : q*nf+nf]
					if got, want := p.FromFactors(fq), k.Eval(x1[q], x2[q]); !same(got, want) {
						t.Fatalf("trial %d pair %d: FromFactors %v != direct Eval %v", trial, q, got, want)
					}
					kernel.EvalSplit(p, diffs[q], f)
					for j := range f {
						if !same(fq[j], f[j]) {
							t.Fatalf("trial %d pair %d: batched factor %d %v != EvalSplit %v", trial, q, j, fq[j], f[j])
						}
					}
				}
			}
		})
	}
}
