package kernel_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/kernel/kerneltest"
	"repro/internal/linalg"
)

// checkGradFD compares EvalGrad against central finite differences.
func checkGradFD(t *testing.T, k kernel.Kernel, x1, x2 []float64, tol float64) {
	t.Helper()
	n := k.NumHyper()
	grad := make([]float64, n)
	v := k.EvalGrad(x1, x2, grad)
	if got := k.Eval(x1, x2); math.Abs(got-v) > 1e-12*(1+math.Abs(v)) {
		t.Fatalf("EvalGrad value %v != Eval %v", v, got)
	}
	theta := kernel.HyperVector(k)
	const h = 1e-6
	for j := 0; j < n; j++ {
		save := theta[j]
		theta[j] = save + h
		k.SetHyper(theta)
		up := k.Eval(x1, x2)
		theta[j] = save - h
		k.SetHyper(theta)
		dn := k.Eval(x1, x2)
		theta[j] = save
		k.SetHyper(theta)
		fd := (up - dn) / (2 * h)
		if math.Abs(fd-grad[j]) > tol*(1+math.Abs(fd)) {
			t.Fatalf("hyper %d: analytic %v vs fd %v", j, grad[j], fd)
		}
	}
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randHyper(rng *rand.Rand, k kernel.Kernel) {
	h := make([]float64, k.NumHyper())
	for i := range h {
		h[i] = rng.Float64()*2 - 1
	}
	k.SetHyper(h)
}

func TestSEARDValue(t *testing.T) {
	k := kernel.NewSEARD(2) // unit amplitude, unit length scales
	if got := k.Eval([]float64{0, 0}, []float64{0, 0}); math.Abs(got-1) > 1e-15 {
		t.Fatalf("k(x,x) = %v, want 1", got)
	}
	want := math.Exp(-0.5 * (1 + 4))
	if got := k.Eval([]float64{0, 0}, []float64{1, 2}); math.Abs(got-want) > 1e-15 {
		t.Fatalf("k = %v, want %v", got, want)
	}
}

func TestSEARDLengthScaleEffect(t *testing.T) {
	k := kernel.NewSEARD(1)
	k.SetHyper([]float64{0, math.Log(10)}) // long length scale
	far := k.Eval([]float64{0}, []float64{1})
	k.SetHyper([]float64{0, math.Log(0.1)}) // short length scale
	near := k.Eval([]float64{0}, []float64{1})
	if far <= near {
		t.Fatalf("longer length scale should increase correlation: %v vs %v", far, near)
	}
}

func TestSEARDGradient(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		k := kernel.NewSEARD(d)
		randHyper(rng, k)
		x1, x2 := randVec(rng, d), randVec(rng, d)
		grad := make([]float64, k.NumHyper())
		v := k.EvalGrad(x1, x2, grad)
		theta := kernel.HyperVector(k)
		const h = 1e-6
		for j := range theta {
			save := theta[j]
			theta[j] = save + h
			k.SetHyper(theta)
			up := k.Eval(x1, x2)
			theta[j] = save - h
			k.SetHyper(theta)
			dn := k.Eval(x1, x2)
			theta[j] = save
			k.SetHyper(theta)
			fd := (up - dn) / (2 * h)
			if math.Abs(fd-grad[j]) > 1e-5*(1+math.Abs(fd)) {
				return false
			}
		}
		_ = v
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSumProductValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := kernel.NewSEARD(2), kernel.NewSEARD(2)
	randHyper(rng, a)
	randHyper(rng, b)
	x1, x2 := randVec(rng, 2), randVec(rng, 2)
	sum := kerneltest.NewSum(a.Clone(), b.Clone())
	prod := kerneltest.NewProduct(a.Clone(), b.Clone())
	if got, want := sum.Eval(x1, x2), a.Eval(x1, x2)+b.Eval(x1, x2); math.Abs(got-want) > 1e-14 {
		t.Fatalf("sum %v != %v", got, want)
	}
	if got, want := prod.Eval(x1, x2), a.Eval(x1, x2)*b.Eval(x1, x2); math.Abs(got-want) > 1e-14 {
		t.Fatalf("product %v != %v", got, want)
	}
}

func TestSumProductGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := kerneltest.NewSum(kerneltest.NewProduct(kernel.NewSEARD(2), kernel.NewSEARD(2)), kernel.NewSEARD(2))
	randHyper(rng, k)
	checkGradFD(t, k, randVec(rng, 2), randVec(rng, 2), 1e-5)
}

func TestHyperRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := kernel.NewNARGP(3)
	randHyper(rng, k)
	h1 := kernel.HyperVector(k)
	k.SetHyper(h1)
	h2 := kernel.HyperVector(k)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("hyper round trip mismatch at %d", i)
		}
	}
	if k.NumHyper() != len(h1) {
		t.Fatalf("NumHyper %d != len %d", k.NumHyper(), len(h1))
	}
}

func TestSliceKernel(t *testing.T) {
	inner := kernel.NewSEARD(2)
	s := kerneltest.NewSlice(inner, 1, 3, 4)
	x1 := []float64{9, 0.1, 0.2, 9}
	x2 := []float64{-9, 0.3, 0.4, -9}
	want := inner.Eval([]float64{0.1, 0.2}, []float64{0.3, 0.4})
	if got := s.Eval(x1, x2); math.Abs(got-want) > 1e-15 {
		t.Fatalf("slice eval %v != %v", got, want)
	}
	if s.Dim() != 4 {
		t.Fatalf("slice dim %d", s.Dim())
	}
}

func TestSlicePanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	kerneltest.NewSlice(kernel.NewSEARD(2), 0, 1, 4)
}

func TestNARGPStructure(t *testing.T) {
	d := 3
	k := kernel.NewNARGP(d)
	if k.Dim() != d+1 {
		t.Fatalf("kernel.NARGP dim %d, want %d", k.Dim(), d+1)
	}
	// NumHyper: k1 (1-d SE: 2) + k2 (d-dim SE: d+1) + k3 (d+1) = d+d+4... wait
	want := 2 + (d + 1) + (d + 1)
	if k.NumHyper() != want {
		t.Fatalf("kernel.NARGP hypers %d, want %d", k.NumHyper(), want)
	}
	rng := rand.New(rand.NewSource(8))
	randHyper(rng, k)
	checkGradFD(t, k, randVec(rng, d+1), randVec(rng, d+1), 1e-5)
}

func TestNARGPIgnoresFWhenK1Flat(t *testing.T) {
	// With a huge k1 length scale on the f coordinate, the kernel should be
	// nearly independent of f.
	d := 2
	k := kernel.NewNARGP(d)
	h := make([]float64, k.NumHyper())
	h[1] = 5 // log l_f large → k1 ≈ constant
	k.SetHyper(h)
	z1 := []float64{0.1, 0.2, -3}
	z2 := []float64{0.1, 0.2, +3}
	v1 := k.Eval(z1, z1)
	v2 := k.Eval(z1, z2)
	if math.Abs(v1-v2) > 1e-3*v1 {
		t.Fatalf("flat k1 should suppress f dependence: %v vs %v", v1, v2)
	}
}

// Gram matrices of valid kernels must be symmetric PSD.
func TestGramPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	kernels := []kernel.Kernel{
		kernel.NewSEARD(3), kernel.NewNARGP(2),
		kerneltest.NewSum(kernel.NewSEARD(3), kernel.NewSEARD(3)),
		kerneltest.NewProduct(kernel.NewSEARD(3), kernel.NewSEARD(3)),
	}
	for _, k := range kernels {
		randHyper(rng, k)
		n := 8
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = randVec(rng, 3)
		}
		g := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, k.Eval(pts[i], pts[j]))
			}
		}
		// Symmetry.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
					t.Fatalf("gram not symmetric for %T", k)
				}
			}
		}
		vals, _, err := linalg.SymEigen(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if v < -1e-8 {
				t.Fatalf("gram of %T has negative eigenvalue %v", k, v)
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	k := kernel.NewNARGP(2)
	c := k.Clone()
	h := make([]float64, k.NumHyper())
	for i := range h {
		h[i] = 1
	}
	c.SetHyper(h)
	for _, v := range kernel.HyperVector(k) {
		if v != 0 {
			t.Fatal("Clone shares hyperparameter storage")
		}
	}
}

func TestBoundsLengths(t *testing.T) {
	for _, k := range []kernel.Kernel{kernel.NewSEARD(4), kernel.NewNARGP(3), kerneltest.NewSum(kernel.NewSEARD(2), kerneltest.NewSlice(kernel.NewSEARD(1), 1, 2, 2))} {
		lo, hi := kernel.BoundsVectors(k)
		if len(lo) != k.NumHyper() || len(hi) != k.NumHyper() {
			t.Fatalf("%T bounds lengths %d/%d, want %d", k, len(lo), len(hi), k.NumHyper())
		}
		for i := range lo {
			if lo[i] >= hi[i] {
				t.Fatalf("%T bounds inverted at %d", k, i)
			}
		}
	}
}
