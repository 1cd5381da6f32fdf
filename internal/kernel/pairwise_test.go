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
// and EvalSplit equal the direct Eval, PairArgs on a batch of one pair
// writes what FactorArgs does, and PairGrads on it over the recorded factors
// equals the direct EvalGrad, all bit for bit.
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

// checkProfile requires p's Eval, EvalSplit and one-pair PairArgs and
// PairGrads on diff to equal k's direct Eval and EvalGrad on (x1, x2) bit
// for bit. A batch of one pair reads diff as its dimension-major columns.
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
	if got := p.FromFactors(f); !same(got, vWant) {
		t.Fatalf("%s profile FromFactors %v != direct EvalGrad %v", label, got, vWant)
	}
	a, aWant := make([]float64, len(f)), make([]float64, len(f))
	p.FactorArgs(diff, aWant)
	p.PairArgs(diff, 1, a, len(a))
	if !linalg.SameBits(a, aWant) {
		t.Fatalf("%s profile PairArgs %v != FactorArgs %v", label, a, aWant)
	}
	g := make([]float64, len(gWant))
	for j := range g {
		g[j] = math.NaN() // every entry must be written
	}
	p.PairGrads(diff, 1, f, len(f), g, len(g))
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

// TestPairBatchMatchesPerPair is the batch methods' oracle: on every kernel,
// for batches of 0, 1, 2, 3, 5 and 40 pairs read dimension-major, PairArgs
// writes each pair's arguments exactly as FactorArgs does for that pair
// alone, and PairGrads, over the batch's factors, writes each pair's
// gradient exactly as the direct EvalGrad does, bit for bit. The batches
// hold +0 and −0 differences, and the trial at the lower bounds puts the
// pairs so far apart that their factors underflow to 0. Both methods write
// at a stride wider than a pair's entries and must leave the gaps alone.
func TestPairBatchMatchesPerPair(t *testing.T) {
	const d, gap = 4, 2
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(13))
	for name, k := range profileKernels(d) {
		t.Run(name, func(t *testing.T) {
			nh := k.NumHyper()
			lo, hi := kernel.BoundsVectors(k)
			underflowed := 0
			for _, P := range []int{0, 1, 2, 3, 5, 40} {
				for trial := 0; trial < 4; trial++ {
					h := make([]float64, nh)
					for j := range h {
						h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
						if trial == 0 {
							h[j] = lo[j]
						}
					}
					k.SetHyper(h)
					p := k.Profile()
					nf := p.NumFactors()
					fs, gs := nf+gap, nh+gap
					scale := 1.0
					if trial == 0 {
						scale = 20
					}
					x1, x2 := make([][]float64, P), make([][]float64, P)
					diffs := make([]float64, d*P)
					for q := 0; q < P; q++ {
						x1[q], x2[q] = make([]float64, d), make([]float64, d)
						for j := 0; j < d; j++ {
							x1[q][j], x2[q][j] = scale*rng.NormFloat64(), scale*rng.NormFloat64()
							switch (q + j) % 5 {
							case 0:
								x2[q][j] = x1[q][j] // +0
							case 1:
								x1[q][j], x2[q][j] = negZero, 0 // −0 − (+0) = −0
							}
							diffs[j*P+q] = x1[q][j] - x2[q][j]
						}
					}
					label := fmt.Sprintf("P=%d trial %d", P, trial)
					sentinel := math.Float64frombits(0x7ff8dead00000000)
					a := make([]float64, P*fs)
					for i := range a {
						a[i] = sentinel
					}
					p.PairArgs(diffs, P, a, fs)
					diff, want := make([]float64, d), make([]float64, nf)
					for q := 0; q < P; q++ {
						for j := range diff {
							diff[j] = diffs[j*P+q]
						}
						p.FactorArgs(diff, want)
						if !linalg.SameBits(a[q*fs:q*fs+nf], want) {
							t.Fatalf("%s pair %d: PairArgs %v != FactorArgs %v", label, q, a[q*fs:q*fs+nf], want)
						}
						for i := q*fs + nf; i < (q+1)*fs; i++ {
							if math.Float64bits(a[i]) != math.Float64bits(sentinel) {
								t.Fatalf("%s pair %d: PairArgs wrote into the gap", label, q)
							}
						}
					}
					linalg.ExpInto(a, a)
					g := make([]float64, P*gs)
					for i := range g {
						g[i] = sentinel
					}
					p.PairGrads(diffs, P, a, fs, g, gs)
					gWant := make([]float64, nh)
					for q := 0; q < P; q++ {
						for _, f := range a[q*fs : q*fs+nf] {
							if f == 0 {
								underflowed++
							}
						}
						k.EvalGrad(x1[q], x2[q], gWant)
						if !linalg.SameBits(g[q*gs:q*gs+nh], gWant) {
							t.Fatalf("%s pair %d: PairGrads %v != direct EvalGrad %v", label, q, g[q*gs:q*gs+nh], gWant)
						}
						for i := q*gs + nh; i < (q+1)*gs; i++ {
							if math.Float64bits(g[i]) != math.Float64bits(sentinel) {
								t.Fatalf("%s pair %d: PairGrads wrote into the gap", label, q)
							}
						}
					}
				}
			}
			if underflowed == 0 {
				t.Fatal("no factor underflowed to 0: the bound trials test nothing")
			}
		})
	}
}
