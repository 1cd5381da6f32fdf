package kernel

import "fmt"

// Sum is the pointwise sum of two kernels over the same input space.
type Sum struct {
	A, B Kernel
}

// NewSum returns a + b. Both kernels must share the input dimension.
func NewSum(a, b Kernel) *Sum {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("kernel: sum dim mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	return &Sum{A: a, B: b}
}

// Dim implements Kernel.
func (k *Sum) Dim() int { return k.A.Dim() }

// NumHyper implements Kernel.
func (k *Sum) NumHyper() int { return k.A.NumHyper() + k.B.NumHyper() }

// Hyper implements Kernel.
func (k *Sum) Hyper(dst []float64) []float64 { return k.B.Hyper(k.A.Hyper(dst)) }

// SetHyper implements Kernel.
func (k *Sum) SetHyper(src []float64) int {
	n := k.A.SetHyper(src)
	n += k.B.SetHyper(src[n:])
	return n
}

// Eval implements Kernel.
func (k *Sum) Eval(x1, x2 []float64) float64 { return k.A.Eval(x1, x2) + k.B.Eval(x1, x2) }

// EvalGrad implements Kernel.
func (k *Sum) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	na := k.A.NumHyper()
	va := k.A.EvalGrad(x1, x2, grad[:na])
	vb := k.B.EvalGrad(x1, x2, grad[na:])
	return va + vb
}

// Bounds implements Kernel.
func (k *Sum) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo, hi = k.A.Bounds(lo, hi)
	return k.B.Bounds(lo, hi)
}

// Clone implements Kernel.
func (k *Sum) Clone() Kernel { return &Sum{A: k.A.Clone(), B: k.B.Clone()} }

// Product is the pointwise product of two kernels over the same input space.
type Product struct {
	A, B Kernel
}

// NewProduct returns a · b. Both kernels must share the input dimension.
func NewProduct(a, b Kernel) *Product {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("kernel: product dim mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	return &Product{A: a, B: b}
}

// Dim implements Kernel.
func (k *Product) Dim() int { return k.A.Dim() }

// NumHyper implements Kernel.
func (k *Product) NumHyper() int { return k.A.NumHyper() + k.B.NumHyper() }

// Hyper implements Kernel.
func (k *Product) Hyper(dst []float64) []float64 { return k.B.Hyper(k.A.Hyper(dst)) }

// SetHyper implements Kernel.
func (k *Product) SetHyper(src []float64) int {
	n := k.A.SetHyper(src)
	n += k.B.SetHyper(src[n:])
	return n
}

// Eval implements Kernel.
func (k *Product) Eval(x1, x2 []float64) float64 { return k.A.Eval(x1, x2) * k.B.Eval(x1, x2) }

// EvalGrad implements Kernel.
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

// Bounds implements Kernel.
func (k *Product) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo, hi = k.A.Bounds(lo, hi)
	return k.B.Bounds(lo, hi)
}

// Clone implements Kernel.
func (k *Product) Clone() Kernel { return &Product{A: k.A.Clone(), B: k.B.Clone()} }

// Slice adapts a kernel over a sub-range of input coordinates: the wrapped
// kernel sees x[Start:End]. It is the building block for structured kernels
// over augmented inputs such as (x, f_l(x)).
type Slice struct {
	Inner      Kernel
	Start, End int // half-open coordinate range
	fullDim    int
}

// NewSlice wraps inner so that it reads coordinates [start, end) of a
// fullDim-dimensional input. inner.Dim() must equal end−start.
func NewSlice(inner Kernel, start, end, fullDim int) *Slice {
	if start < 0 || end > fullDim || end-start != inner.Dim() {
		panic(fmt.Sprintf("kernel: slice [%d,%d) of %d-dim input for %d-dim kernel",
			start, end, fullDim, inner.Dim()))
	}
	return &Slice{Inner: inner, Start: start, End: end, fullDim: fullDim}
}

// Dim implements Kernel.
func (k *Slice) Dim() int { return k.fullDim }

// NumHyper implements Kernel.
func (k *Slice) NumHyper() int { return k.Inner.NumHyper() }

// Hyper implements Kernel.
func (k *Slice) Hyper(dst []float64) []float64 { return k.Inner.Hyper(dst) }

// SetHyper implements Kernel.
func (k *Slice) SetHyper(src []float64) int { return k.Inner.SetHyper(src) }

// Eval implements Kernel.
func (k *Slice) Eval(x1, x2 []float64) float64 {
	return k.Inner.Eval(x1[k.Start:k.End], x2[k.Start:k.End])
}

// EvalGrad implements Kernel.
func (k *Slice) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	return k.Inner.EvalGrad(x1[k.Start:k.End], x2[k.Start:k.End], grad)
}

// Bounds implements Kernel.
func (k *Slice) Bounds(lo, hi []float64) ([]float64, []float64) { return k.Inner.Bounds(lo, hi) }

// Clone implements Kernel.
func (k *Slice) Clone() Kernel {
	return &Slice{Inner: k.Inner.Clone(), Start: k.Start, End: k.End, fullDim: k.fullDim}
}
