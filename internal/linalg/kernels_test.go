package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// scalarBlock runs f with the block kernels' Go loops, whatever the CPU.
func scalarBlock(f func()) {
	saved := vectorBlock
	vectorBlock = false
	defer func() { vectorBlock = saved }()
	f()
}

// sameOrNaN reports the first index where got and want differ: bits unequal
// on a non-NaN result, or NaN in one but not the other. It returns -1 when
// they agree.
func sameOrNaN(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		gn, wn := math.IsNaN(got[i]), math.IsNaN(want[i])
		if gn != wn || !gn && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkSolvePaths requires the forward and backward block solves to give the
// same bits on the kernels as on the Go loops, into fresh storage and in
// place.
func checkSolvePaths(t *testing.T, label string, c *Cholesky, b []float64, S int) {
	t.Helper()
	type solve struct {
		name string
		f    func(b, y []float64, S int)
	}
	for _, sv := range []solve{{"forward", c.ForwardSolveBlockInto}, {"backward", c.backwardSolveBlockInto}} {
		want := make([]float64, len(b))
		scalarBlock(func() { sv.f(b, want, S) })
		got := make([]float64, len(b))
		sv.f(b, got, S)
		inPlace := append([]float64(nil), b...)
		sv.f(inPlace, inPlace, S)
		if i := sameOrNaN(got, want); i >= 0 {
			t.Fatalf("%s %s S=%d: element %d = %v, Go loop %v", label, sv.name, S, i, got[i], want[i])
		}
		if i := sameOrNaN(inPlace, want); i >= 0 {
			t.Fatalf("%s %s S=%d in place: element %d = %v, Go loop %v", label, sv.name, S, i, inPlace[i], want[i])
		}
	}
}

// TestBlockSolvesMatchLoops is the block solves' oracle: for every shape,
// on a tight factor, on one built into wide storage and on one grown by
// AppendRow, the kernels equal the Go loops bit for bit.
func TestBlockSolvesMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{0, 1, 2, 3, 5, 17, 33, 64} {
		a := randomSPD(rng, n)
		tight, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := NewCholeskyReuse(a, &Cholesky{L: NewMatrix(n+7, n+7)})
		if err != nil {
			t.Fatal(err)
		}
		names, factors := []string{"tight", "wide"}, []*Cholesky{tight, wide}
		if n >= 5 {
			names, factors = append(names, "grown"), append(factors, growFactor(t, a, 3))
		}
		for f, c := range factors {
			for _, S := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 30, 31, 33} {
				checkSolvePaths(t, fmt.Sprintf("%s n=%d", names[f], n), c, randomBlock(rng, n, S), S)
			}
		}
	}
}

// blockSpecials are the values the element-wise oracles place in every lane.
var blockSpecials = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	-0x1p-1030, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.NaN()}

// TestAXPYAndAddSquaresMatchLoops requires AXPY and AddSquares to equal
// their Go loops at every length 0–40, with each special value in every lane
// of x and of y, under ordinary, zero, huge and NaN multipliers.
func TestAXPYAndAddSquaresMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for n := 0; n <= 40; n++ {
		x0, y0 := randomBlock(rng, 1, n), randomBlock(rng, 1, n)
		check := func(label string, alpha float64, x, y []float64) {
			got, want := append([]float64(nil), y...), append([]float64(nil), y...)
			AXPY(alpha, x, got)
			axpyLoop(alpha, x, want)
			if i := sameOrNaN(got, want); i >= 0 {
				t.Fatalf("AXPY n=%d %s alpha=%v: element %d = %v, Go loop %v", n, label, alpha, i, got[i], want[i])
			}
			copy(got, y)
			copy(want, y)
			AddSquares(got, x)
			addSquaresLoop(want, x)
			if i := sameOrNaN(got, want); i >= 0 {
				t.Fatalf("AddSquares n=%d %s: element %d = %v, Go loop %v", n, label, i, got[i], want[i])
			}
		}
		for _, alpha := range []float64{-1.7, math.Copysign(0, -1), math.MaxFloat64, math.NaN()} {
			check("random", alpha, x0, y0)
			for _, v := range blockSpecials {
				for p := 0; p < n; p++ {
					x, y := append([]float64(nil), x0...), append([]float64(nil), y0...)
					x[p] = v
					check(fmt.Sprintf("x[%d]=%v", p, v), alpha, x, y)
					x[p] = x0[p]
					y[p] = v
					check(fmt.Sprintf("y[%d]=%v", p, v), alpha, x, y)
				}
			}
		}
	}
}

// TestRowSolveMatchesLoopOnSpecials places each special value in every lane
// of src, in one x row and in c, and requires rowSolve to equal its Go loop.
func TestRowSolveMatchesLoopOnSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	const m, cs = 3, 2
	for _, S := range []int{1, 3, 4, 7, 16, 21, 37} {
		xs := S + 1
		src0, x0, c0 := randomBlock(rng, 1, S), randomBlock(rng, m, xs), randomBlock(rng, 1, m*cs)
		for _, v := range blockSpecials {
			for _, d := range []float64{1.3, v} {
				for p := 0; p < S; p++ {
					for _, where := range []string{"src", "x", "c"} {
						src, x, c := append([]float64(nil), src0...), append([]float64(nil), x0...), append([]float64(nil), c0...)
						switch where {
						case "src":
							src[p] = v
						case "x":
							x[xs+p] = v
						case "c":
							c[(p%m)*cs] = v
						}
						got, want := make([]float64, S), make([]float64, S)
						rowSolve(got, src, c, cs, x, xs, m, d)
						rowSolveLoop(want, src, c, cs, x, xs, m, d)
						if i := sameOrNaN(got, want); i >= 0 {
							t.Fatalf("S=%d %s[%d]=%v d=%v: lane %d = %v, Go loop %v", S, where, p, v, d, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAddScaledRowsMatchesLoopOnSpecials places each special value, and a
// NaN with its sign bit set, in every lane of dst, in every lane of one x
// row and in every term of c, and requires AddScaledRows to equal its Go
// loop bit for bit, NaN bits included: with one special per call no product
// has two NaN operands, so the result's bits are defined, and a kernel that
// subtracted negated products would flip a NaN's sign.
func TestAddScaledRowsMatchesLoopOnSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	specials := append([]float64{math.Float64frombits(0xfff8000000000001)}, blockSpecials...)
	for _, S := range []int{1, 2, 3, 4, 6, 7, 14, 16, 21, 37} {
		for _, m := range []int{0, 1, 3} {
			xs := S + 1
			dst0, x0, c0 := randomBlock(rng, 1, S), randomBlock(rng, max(m, 1), xs), randomBlock(rng, 1, m)
			for _, v := range specials {
				for p := 0; p < S; p++ {
					for _, where := range []string{"dst", "x", "c"} {
						if where == "c" && (m == 0 || p >= m) || where == "x" && m == 0 {
							continue
						}
						dst, x, c := append([]float64(nil), dst0...), append([]float64(nil), x0...), append([]float64(nil), c0...)
						switch where {
						case "dst":
							dst[p] = v
						case "x":
							x[(m-1)*xs+p] = v
						case "c":
							c[p] = v
						}
						want := append([]float64(nil), dst...)
						AddScaledRows(dst, c, x, xs)
						addScaledRowsLoop(want, c, x, xs)
						if !SameBits(dst, want) {
							t.Fatalf("S=%d m=%d %s[%d]=%v: got %v, Go loop %v", S, m, where, p, v, dst, want)
						}
					}
				}
			}
		}
	}
}

// TestAddScaledRowsPanicsOutOfRange requires AddScaledRows to refuse, before
// any kernel reads memory, every shape its x cannot hold.
func TestAddScaledRowsPanicsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name             string
		nDst, nC, nX, xs int
	}{
		{"x too short", 4, 3, 11, 4},
		{"negative stride", 4, 3, 12, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			AddScaledRows(make([]float64, tc.nDst), make([]float64, tc.nC), make([]float64, tc.nX), tc.xs)
		})
	}
}

func TestAddSquaresRejectsLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddSquares(make([]float64, 3), make([]float64, 4))
}

// TestRowSolvePanicsOutOfRange requires rowSolve to refuse, before any
// kernel reads memory, every shape its c or x cannot hold.
func TestRowSolvePanicsOutOfRange(t *testing.T) {
	buf := make([]float64, 20)
	for _, tc := range []struct {
		name           string
		nDst, nSrc, nC int
		cs, nX, xs, m  int
	}{
		{"src length", 4, 5, 3, 1, 12, 4, 3},
		{"c too short", 4, 4, 2, 1, 12, 4, 3},
		{"c stride too long", 4, 4, 3, 2, 12, 4, 3},
		{"x too short", 4, 4, 3, 1, 11, 4, 3},
		{"negative stride", 4, 4, 3, -1, 12, 4, 3},
		{"negative terms", 4, 4, 3, 1, 12, 4, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected a panic")
				}
			}()
			rowSolve(make([]float64, tc.nDst), make([]float64, tc.nSrc), buf[:tc.nC], tc.cs, buf[:tc.nX], tc.xs, tc.m, 1)
		})
	}
}

// TestBlockKernelsVectorPathDispatch checks that the kernels are in use on
// an amd64 CPU with AVX2 and FMA, that their self-check passes there, and
// that they agree with the Go loops on a propagation-cloud-shaped solve.
func TestBlockKernelsVectorPathDispatch(t *testing.T) {
	if vectorBlock != blockAgrees() {
		t.Fatalf("vector path on = %v, but the self-check passing = %v", vectorBlock, blockAgrees())
	}
	if hasVectorCPU() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") && !vectorBlock {
		t.Fatal("block kernels off on a CPU with AVX2 and FMA")
	}
	if !vectorBlock {
		t.Skip("block kernels not in use on this platform")
	}
	rng := rand.New(rand.NewSource(113))
	c, err := NewCholesky(randomSPD(rng, 40))
	if err != nil {
		t.Fatal(err)
	}
	checkSolvePaths(t, "cloud", c, randomBlock(rng, 40, 30), 30)
}

// FuzzBlockKernels reads a shape from the first three bytes and float64
// lanes from the rest, and requires rowSolve, AddScaledRows, AXPY and
// AddSquares to equal their Go loops on them.
func FuzzBlockKernels(f *testing.F) {
	seed := func(shape [3]byte, xs ...float64) []byte {
		b := append([]byte(nil), shape[:]...)
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed([3]byte{5, 2, 1}, 1, -2, 0.5, 3, 0.25))
	f.Add(seed([3]byte{17, 3, 2}, 1e308, -1e308, 1e-310, math.Inf(1), math.NaN(), 7))
	f.Add(seed([3]byte{33, 0, 0}, -0.0, 4))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		S, m, cs := int(b[0])%41, int(b[1])%6, 1+int(b[2])%3
		xs := S + int(b[2])%2
		vals := make([]float64, (len(b)-3)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[3+8*i:]))
		}
		next := 0
		fill := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				if len(vals) > 0 {
					out[i] = vals[next%len(vals)]
					next++
				}
			}
			return out
		}
		src, c, x, y := fill(S), fill(m*cs+1), fill(m*xs+S), fill(S)
		d := fill(1)[0]
		got, want := make([]float64, S), make([]float64, S)
		rowSolve(got, src, c, cs, x, xs, m, d)
		rowSolveLoop(want, src, c, cs, x, xs, m, d)
		if i := sameOrNaN(got, want); i >= 0 {
			t.Fatalf("rowSolve S=%d m=%d: lane %d = %v, Go loop %v", S, m, i, got[i], want[i])
		}
		copy(got, y)
		copy(want, y)
		AddScaledRows(got, c[:m], x, xs)
		addScaledRowsLoop(want, c[:m], x, xs)
		if i := sameOrNaN(got, want); i >= 0 {
			t.Fatalf("AddScaledRows S=%d m=%d: lane %d = %v, Go loop %v", S, m, i, got[i], want[i])
		}
		copy(got, y)
		copy(want, y)
		AXPY(d, src, got)
		axpyLoop(d, src, want)
		if i := sameOrNaN(got, want); i >= 0 {
			t.Fatalf("AXPY S=%d: lane %d = %v, Go loop %v", S, i, got[i], want[i])
		}
		copy(got, y)
		copy(want, y)
		AddSquares(got, src)
		addSquaresLoop(want, src)
		if i := sameOrNaN(got, want); i >= 0 {
			t.Fatalf("AddSquares S=%d: lane %d = %v, Go loop %v", S, i, got[i], want[i])
		}
	})
}
