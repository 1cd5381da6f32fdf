package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/linalg"
)

// compositeNARGP is eq. (9) assembled from the generic combinators: the
// reference the dedicated NARGP type must reproduce bit for bit.
func compositeNARGP(d int) kernel.Kernel {
	full := d + 1
	k1 := kerneltest.NewSlice(kernel.NewSEARD(1), d, d+1, full)
	k2 := kerneltest.NewSlice(kernel.NewSEARD(d), 0, d, full)
	k3 := kerneltest.NewSlice(kernel.NewSEARD(d), 0, d, full)
	return kerneltest.NewSum(kerneltest.NewProduct(k1, k2), k3)
}

// splitProfile is the x-part/combine split the NARGP profile offers fused
// predictions.
type splitProfile interface {
	XPart(diff []float64) (k2, k3 float64)
	Combine(df, k2, k3 float64) float64
	CombineRow(ts []float64, f, k2, k3 float64, out []float64)
}

func TestNARGPMatchesCompositeBitForBit(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, d := range []int{1, 3, 5} {
		k, ref := kernel.NewNARGP(d), compositeNARGP(d)
		if k.NumHyper() != ref.NumHyper() || k.Dim() != ref.Dim() {
			t.Fatalf("d=%d: shape (%d, %d) != composite (%d, %d)", d, k.Dim(), k.NumHyper(), ref.Dim(), ref.NumHyper())
		}
		lo, hi := kernel.BoundsVectors(k)
		rlo, rhi := kernel.BoundsVectors(ref)
		for j := range lo {
			if lo[j] != rlo[j] || hi[j] != rhi[j] {
				t.Fatalf("d=%d: bound %d differs from the composite", d, j)
			}
		}
		rng := rand.New(rand.NewSource(int64(40 + d)))
		nh := k.NumHyper()
		g, gr := make([]float64, nh), make([]float64, nh)
		for trial := 0; trial < 25; trial++ {
			h := make([]float64, nh)
			for j := range h {
				h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			k.SetHyper(h)
			ref.SetHyper(h)
			for j, v := range kernel.HyperVector(k) {
				if v != h[j] {
					t.Fatalf("d=%d: hyper layout moved entry %d", d, j)
				}
			}
			x1, x2, diff := make([]float64, d+1), make([]float64, d+1), make([]float64, d+1)
			for j := range x1 {
				x1[j], x2[j] = rng.NormFloat64(), rng.NormFloat64()
				diff[j] = x1[j] - x2[j]
			}
			if a, b := k.Eval(x1, x2), ref.Eval(x1, x2); !same(a, b) {
				t.Fatalf("d=%d trial %d: Eval %v != composite %v", d, trial, a, b)
			}
			a, b := k.EvalGrad(x1, x2, g), ref.EvalGrad(x1, x2, gr)
			if !same(a, b) {
				t.Fatalf("d=%d trial %d: EvalGrad %v != composite %v", d, trial, a, b)
			}
			for j := range g {
				if !same(g[j], gr[j]) {
					t.Fatalf("d=%d trial %d: grad[%d] %v != composite %v", d, trial, j, g[j], gr[j])
				}
			}
			p, pr := k.Profile(), ref.Profile()
			if a, b := p.Eval(diff), pr.Eval(diff); !same(a, b) {
				t.Fatalf("d=%d trial %d: profile Eval %v != composite %v", d, trial, a, b)
			}
			f, fr := make([]float64, p.NumFactors()), make([]float64, pr.NumFactors())
			if a, b := kernel.EvalSplit(p, diff, f), kernel.EvalSplit(pr, diff, fr); !same(a, b) {
				t.Fatalf("d=%d trial %d: profile EvalSplit %v != composite %v", d, trial, a, b)
			}
			p.PairGrads(diff, 1, f, len(f), g, len(g))
			pr.PairGrads(diff, 1, fr, len(fr), gr, len(gr))
			for j := range g {
				if !same(g[j], gr[j]) {
					t.Fatalf("d=%d trial %d: profile grad[%d] %v != composite %v", d, trial, j, g[j], gr[j])
				}
			}
			sp := p.(splitProfile)
			k2, k3 := sp.XPart(diff)
			if a, b := sp.Combine(diff[d], k2, k3), pr.Eval(diff); !same(a, b) {
				t.Fatalf("d=%d trial %d: Combine(XPart) %v != composite %v", d, trial, a, b)
			}
			// CombineRow against one training row (last coordinate x2[d])
			// over a cloud whose first node is x1[d], so that node is the
			// composite's pair.
			ts := []float64{x1[d], x2[d], 3 * rng.NormFloat64(), math.Inf(1), 1e-300}
			out := make([]float64, len(ts))
			sp.CombineRow(ts, x2[d], k2, k3, out)
			for s, tv := range ts {
				if a := sp.Combine(tv-x2[d], k2, k3); !same(out[s], a) {
					t.Fatalf("d=%d trial %d: CombineRow[%d] %v != Combine %v", d, trial, s, out[s], a)
				}
			}
			if !same(out[0], pr.Eval(diff)) {
				t.Fatalf("d=%d trial %d: CombineRow %v != composite %v", d, trial, out[0], pr.Eval(diff))
			}
		}
	}
}

func TestNARGPRejectsZeroDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	kernel.NewNARGP(0)
}

// TestNARGPSplitArgsMatchComposite checks the x-part arguments and the
// cloud combine the way a fused prediction runs them: XArgs for many rows,
// one linalg.ExpInto per factor, then CombineRow over a 30-node cloud, which
// takes the vector path where there is one. Every x-part equals XPart and
// every cloud entry the composite kernel, bit for bit.
func TestNARGPSplitArgsMatchComposite(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	type argsProfile interface {
		splitProfile
		XArgs(diff []float64) (a2, a3 float64)
	}
	const rows, nodes = 9, 30
	for _, d := range []int{1, 3, 5} {
		k, ref := kernel.NewNARGP(d), compositeNARGP(d)
		lo, hi := kernel.BoundsVectors(k)
		rng := rand.New(rand.NewSource(int64(70 + d)))
		for trial := 0; trial < 10; trial++ {
			h := make([]float64, k.NumHyper())
			for j := range h {
				h[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			k.SetHyper(h)
			ref.SetHyper(h)
			p, pr := k.Profile().(argsProfile), ref.Profile()
			x := make([]float64, d+1)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			xs := make([][]float64, rows)
			k2, k3 := make([]float64, rows), make([]float64, rows)
			diff := make([]float64, d+1)
			for i := range xs {
				xs[i] = make([]float64, d+1)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64()
				}
				for j := 0; j < d; j++ {
					diff[j] = x[j] - xs[i][j]
				}
				k2[i], k3[i] = p.XArgs(diff)
			}
			linalg.ExpInto(k2, k2)
			linalg.ExpInto(k3, k3)
			ts := make([]float64, nodes)
			for s := range ts {
				ts[s] = 3 * rng.NormFloat64()
			}
			ts[nodes-1] = math.Inf(1)
			out := make([]float64, nodes)
			for i, xi := range xs {
				for j := 0; j < d; j++ {
					diff[j] = x[j] - xi[j]
				}
				if a2, a3 := p.XPart(diff); !same(a2, k2[i]) || !same(a3, k3[i]) {
					t.Fatalf("d=%d trial %d row %d: batched x-part (%v, %v) != XPart (%v, %v)", d, trial, i, k2[i], k3[i], a2, a3)
				}
				p.CombineRow(ts, xi[d], k2[i], k3[i], out)
				for s, tv := range ts {
					diff[d] = tv - xi[d]
					if want := pr.Eval(diff); !same(out[s], want) {
						t.Fatalf("d=%d trial %d row %d node %d: CombineRow %v != composite %v", d, trial, i, s, out[s], want)
					}
				}
			}
		}
	}
}
