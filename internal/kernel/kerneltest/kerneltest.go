// Package kerneltest holds the generic sum, product and slice kernel
// combinators and their pair profiles. Production code builds only the
// paper's two kernels, kernel.SEARD and kernel.NARGP; the combinators
// assemble eq. (9) term by term as the reference the dedicated NARGP kernel
// is tested against bit for bit, and give tests further valid kernels.
package kerneltest

import (
	"fmt"

	"repro/internal/kernel"
)

// Sum is the pointwise sum of two kernels over the same input space.
type Sum struct {
	A, B kernel.Kernel
}

// NewSum returns a + b. Both kernels must share the input dimension.
func NewSum(a, b kernel.Kernel) *Sum {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("kerneltest: sum dim mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	return &Sum{A: a, B: b}
}

// Dim implements kernel.Kernel.
func (k *Sum) Dim() int { return k.A.Dim() }

// NumHyper implements kernel.Kernel.
func (k *Sum) NumHyper() int { return k.A.NumHyper() + k.B.NumHyper() }

// Hyper implements kernel.Kernel.
func (k *Sum) Hyper(dst []float64) []float64 { return k.B.Hyper(k.A.Hyper(dst)) }

// SetHyper implements kernel.Kernel.
func (k *Sum) SetHyper(src []float64) int {
	n := k.A.SetHyper(src)
	n += k.B.SetHyper(src[n:])
	return n
}

// Eval implements kernel.Kernel.
func (k *Sum) Eval(x1, x2 []float64) float64 { return k.A.Eval(x1, x2) + k.B.Eval(x1, x2) }

// EvalGrad implements kernel.Kernel.
func (k *Sum) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	na := k.A.NumHyper()
	va := k.A.EvalGrad(x1, x2, grad[:na])
	vb := k.B.EvalGrad(x1, x2, grad[na:])
	return va + vb
}

// Bounds implements kernel.Kernel.
func (k *Sum) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo, hi = k.A.Bounds(lo, hi)
	return k.B.Bounds(lo, hi)
}

// Clone implements kernel.Kernel.
func (k *Sum) Clone() kernel.Kernel { return &Sum{A: k.A.Clone(), B: k.B.Clone()} }

// Product is the pointwise product of two kernels over the same input space.
type Product struct {
	A, B kernel.Kernel
}

// NewProduct returns a · b. Both kernels must share the input dimension.
func NewProduct(a, b kernel.Kernel) *Product {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("kerneltest: product dim mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	return &Product{A: a, B: b}
}

// Dim implements kernel.Kernel.
func (k *Product) Dim() int { return k.A.Dim() }

// NumHyper implements kernel.Kernel.
func (k *Product) NumHyper() int { return k.A.NumHyper() + k.B.NumHyper() }

// Hyper implements kernel.Kernel.
func (k *Product) Hyper(dst []float64) []float64 { return k.B.Hyper(k.A.Hyper(dst)) }

// SetHyper implements kernel.Kernel.
func (k *Product) SetHyper(src []float64) int {
	n := k.A.SetHyper(src)
	n += k.B.SetHyper(src[n:])
	return n
}

// Eval implements kernel.Kernel.
func (k *Product) Eval(x1, x2 []float64) float64 { return k.A.Eval(x1, x2) * k.B.Eval(x1, x2) }

// EvalGrad implements kernel.Kernel.
func (k *Product) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	na := k.A.NumHyper()
	va := k.A.EvalGrad(x1, x2, grad[:na])
	vb := k.B.EvalGrad(x1, x2, grad[na:])
	for i := 0; i < na; i++ {
		grad[i] *= vb
	}
	for i := na; i < len(grad); i++ {
		grad[i] *= va
	}
	return va * vb
}

// Bounds implements kernel.Kernel.
func (k *Product) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo, hi = k.A.Bounds(lo, hi)
	return k.B.Bounds(lo, hi)
}

// Clone implements kernel.Kernel.
func (k *Product) Clone() kernel.Kernel { return &Product{A: k.A.Clone(), B: k.B.Clone()} }

// Slice adapts a kernel over a sub-range of input coordinates: the wrapped
// kernel sees x[Start:End]. It is the building block for structured kernels
// over augmented inputs such as (x, f_l(x)).
type Slice struct {
	Inner      kernel.Kernel
	Start, End int // half-open coordinate range
	fullDim    int
}

// NewSlice wraps inner so that it reads coordinates [start, end) of a
// fullDim-dimensional input. inner.Dim() must equal end−start.
func NewSlice(inner kernel.Kernel, start, end, fullDim int) *Slice {
	if start < 0 || end > fullDim || end-start != inner.Dim() {
		panic(fmt.Sprintf("kerneltest: slice [%d,%d) of %d-dim input for %d-dim kernel",
			start, end, fullDim, inner.Dim()))
	}
	return &Slice{Inner: inner, Start: start, End: end, fullDim: fullDim}
}

// Dim implements kernel.Kernel.
func (k *Slice) Dim() int { return k.fullDim }

// NumHyper implements kernel.Kernel.
func (k *Slice) NumHyper() int { return k.Inner.NumHyper() }

// Hyper implements kernel.Kernel.
func (k *Slice) Hyper(dst []float64) []float64 { return k.Inner.Hyper(dst) }

// SetHyper implements kernel.Kernel.
func (k *Slice) SetHyper(src []float64) int { return k.Inner.SetHyper(src) }

// Eval implements kernel.Kernel.
func (k *Slice) Eval(x1, x2 []float64) float64 {
	return k.Inner.Eval(x1[k.Start:k.End], x2[k.Start:k.End])
}

// EvalGrad implements kernel.Kernel.
func (k *Slice) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	return k.Inner.EvalGrad(x1[k.Start:k.End], x2[k.Start:k.End], grad)
}

// Bounds implements kernel.Kernel.
func (k *Slice) Bounds(lo, hi []float64) ([]float64, []float64) { return k.Inner.Bounds(lo, hi) }

// Clone implements kernel.Kernel.
func (k *Slice) Clone() kernel.Kernel {
	return &Slice{Inner: k.Inner.Clone(), Start: k.Start, End: k.End, fullDim: k.fullDim}
}

// The bit-identity oracles evaluate each profile through kernel.EvalSplit
// over its own FactorArgs and FromFactors, so they cover the split of every
// composite. sumProfile and productProfile keep a's factors (and their
// arguments) first in f, then b's.
type sumProfile struct {
	a, b kernel.PairProfile
	na   int // a's hyperparameter count
	nfa  int // a's factor count
}

// Profile implements kernel.Kernel.
func (k *Sum) Profile() kernel.PairProfile {
	a := k.A.Profile()
	return &sumProfile{a: a, b: k.B.Profile(), na: a.NumHyper(), nfa: a.NumFactors()}
}

func (p *sumProfile) NumHyper() int { return p.na + p.b.NumHyper() }

func (p *sumProfile) Eval(diff []float64) float64 {
	return p.a.Eval(diff) + p.b.Eval(diff)
}

func (p *sumProfile) NumFactors() int { return p.nfa + p.b.NumFactors() }

func (p *sumProfile) FactorArgs(diff, a []float64) {
	p.a.FactorArgs(diff, a[:p.nfa])
	p.b.FactorArgs(diff, a[p.nfa:])
}

func (p *sumProfile) FromFactors(f []float64) float64 {
	return p.a.FromFactors(f[:p.nfa]) + p.b.FromFactors(f[p.nfa:])
}

func (p *sumProfile) PairArgs(diffs []float64, P int, a []float64, stride int) {
	if P == 0 {
		return
	}
	p.a.PairArgs(diffs, P, a, stride)
	p.b.PairArgs(diffs, P, a[p.nfa:], stride)
}

func (p *sumProfile) PairGrads(diffs []float64, P int, f []float64, fs int, g []float64, gs int) {
	if P == 0 {
		return
	}
	p.a.PairGrads(diffs, P, f, fs, g, gs)
	p.b.PairGrads(diffs, P, f[p.nfa:], fs, g[p.na:], gs)
}

type productProfile struct {
	a, b kernel.PairProfile
	na   int // a's hyperparameter count
	nfa  int // a's factor count
}

// Profile implements kernel.Kernel.
func (k *Product) Profile() kernel.PairProfile {
	a := k.A.Profile()
	return &productProfile{a: a, b: k.B.Profile(), na: a.NumHyper(), nfa: a.NumFactors()}
}

func (p *productProfile) NumHyper() int { return p.na + p.b.NumHyper() }

func (p *productProfile) Eval(diff []float64) float64 {
	return p.a.Eval(diff) * p.b.Eval(diff)
}

func (p *productProfile) NumFactors() int { return p.nfa + p.b.NumFactors() }

func (p *productProfile) FactorArgs(diff, a []float64) {
	p.a.FactorArgs(diff, a[:p.nfa])
	p.b.FactorArgs(diff, a[p.nfa:])
}

func (p *productProfile) FromFactors(f []float64) float64 {
	return p.a.FromFactors(f[:p.nfa]) * p.b.FromFactors(f[p.nfa:])
}

func (p *productProfile) PairArgs(diffs []float64, P int, a []float64, stride int) {
	if P == 0 {
		return
	}
	p.a.PairArgs(diffs, P, a, stride)
	p.b.PairArgs(diffs, P, a[p.nfa:], stride)
}

// PairGrads writes both parts' gradients, then scales each pair's into the
// gradients of the product by the other part's value, as EvalGrad does.
func (p *productProfile) PairGrads(diffs []float64, P int, f []float64, fs int, g []float64, gs int) {
	if P == 0 {
		return
	}
	p.a.PairGrads(diffs, P, f, fs, g, gs)
	p.b.PairGrads(diffs, P, f[p.nfa:], fs, g[p.na:], gs)
	nf, nh := p.NumFactors(), p.NumHyper()
	for q := 0; q < P; q++ {
		fq, grad := f[q*fs:q*fs+nf], g[q*gs:q*gs+nh]
		va, vb := p.a.FromFactors(fq[:p.nfa]), p.b.FromFactors(fq[p.nfa:])
		for i := 0; i < p.na; i++ {
			grad[i] *= vb
		}
		for i := p.na; i < nh; i++ {
			grad[i] *= va
		}
	}
}

type sliceProfile struct {
	inner      kernel.PairProfile
	start, end int
}

// Profile implements kernel.Kernel: the inner profile sees diff[Start:End],
// which equals the difference vector of the sliced coordinates exactly.
func (k *Slice) Profile() kernel.PairProfile {
	return &sliceProfile{inner: k.Inner.Profile(), start: k.Start, end: k.End}
}

func (p *sliceProfile) NumHyper() int { return p.inner.NumHyper() }

func (p *sliceProfile) Eval(diff []float64) float64 {
	return p.inner.Eval(diff[p.start:p.end])
}

func (p *sliceProfile) NumFactors() int { return p.inner.NumFactors() }

func (p *sliceProfile) FactorArgs(diff, a []float64) {
	p.inner.FactorArgs(diff[p.start:p.end], a)
}

func (p *sliceProfile) FromFactors(f []float64) float64 { return p.inner.FromFactors(f) }

// PairArgs hands the inner profile columns Start to End, the sliced
// coordinates of every pair.
func (p *sliceProfile) PairArgs(diffs []float64, P int, a []float64, stride int) {
	p.inner.PairArgs(diffs[p.start*P:p.end*P], P, a, stride)
}

func (p *sliceProfile) PairGrads(diffs []float64, P int, f []float64, fs int, g []float64, gs int) {
	p.inner.PairGrads(diffs[p.start*P:p.end*P], P, f, fs, g, gs)
}
