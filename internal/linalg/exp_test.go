package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// checkExpInto requires ExpInto(dst, src) to equal math.Exp elementwise bit
// for bit, both into a separate dst and in place.
func checkExpInto(t *testing.T, label string, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	ExpInto(dst, src)
	in := append([]float64(nil), src...)
	ExpInto(in, in)
	for i, x := range src {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%s: ExpInto[%d](%v = %#016x) = %#016x, math.Exp %#016x",
				label, i, x, math.Float64bits(x), got, want)
		}
		if got := math.Float64bits(in[i]); got != want {
			t.Fatalf("%s: in-place ExpInto[%d](%v) = %#016x, math.Exp %#016x", label, i, x, got, want)
		}
	}
}

// TestExpIntoMatchesMathExp is the bit-identity oracle: over 4M inputs drawn
// from three shapes, ulp sweeps around the range edges and 0, every special
// value in every lane of a block, and every short length, ExpInto equals
// math.Exp.
func TestExpIntoMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const chunk = 1 << 16
	total := 4 << 20
	if testing.Short() {
		total = 1 << 18
	}
	src := make([]float64, chunk)
	shapes := []struct {
		name string
		draw func() float64
	}{
		{"uniform[-750,750]", func() float64 { return 1500*rng.Float64() - 750 }},
		{"bits", func() float64 { return math.Float64frombits(rng.Uint64()) }},
		{"kernel", func() float64 { return -3 * rng.ExpFloat64() }},
	}
	for _, sh := range shapes {
		for done := 0; done < (total+len(shapes)-1)/len(shapes); done += chunk {
			for i := range src {
				src[i] = sh.draw()
			}
			checkExpInto(t, sh.name, src)
		}
	}

	for _, c := range []float64{709.782712893384, -708.39641853226408, -745.1332191019411, 0} {
		sweep := make([]float64, 0, 8002)
		lo, hi := c, c
		for i := 0; i < 4000; i++ {
			lo = math.Nextafter(lo, math.Inf(-1))
			hi = math.Nextafter(hi, math.Inf(1))
			sweep = append(sweep, lo, hi)
		}
		sweep = append(sweep, c)
		checkExpInto(t, fmt.Sprintf("sweep %v", c), sweep)
	}

	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, v := range specials {
		for lane := 0; lane < 8; lane++ {
			blk := []float64{-0.3, 1.7, -12.5, 0.01, 3.25, -40, 7.5, -0.9}
			blk[lane] = v
			checkExpInto(t, fmt.Sprintf("special %v in lane %d", v, lane), blk)
		}
	}

	for n := 0; n <= 9; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = 4*rng.NormFloat64() - 2
		}
		checkExpInto(t, fmt.Sprintf("length %d", n), s)
	}
}

func TestExpIntoRejectsLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExpInto(make([]float64, 3), make([]float64, 4))
}

// TestExpIntoVectorPathDispatch checks the vector path's dispatch. On an
// amd64 CPU with AVX2 and FMA the path is on in a normal run. Rerun in a
// child with GODEBUG=cpu.fma=off, math.Exp takes its non-FMA sequence on a
// GOAMD64=v1 build, the kernel no longer matches it, and the self-check must
// have turned the path off; the oracle must pass there either way.
func TestExpIntoVectorPathDispatch(t *testing.T) {
	if os.Getenv("LINALG_EXP_CHILD") == "1" {
		agrees := kernelAgrees()
		fmt.Printf("GODEBUG=%s: vector kernel agrees with math.Exp: %v, vector path on: %v\n",
			os.Getenv("GODEBUG"), agrees, vectorExp)
		if vectorExp != agrees {
			t.Fatalf("vector path on = %v, but the kernel agreeing with math.Exp = %v", vectorExp, agrees)
		}
		return
	}
	if hasVectorCPU() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") && !vectorExp {
		t.Fatal("vector path off on a CPU with AVX2 and FMA")
	}
	if !vectorExp {
		t.Skip("vector path not in use on this platform")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^(TestExpIntoVectorPathDispatch|TestExpIntoMatchesMathExp)$",
		"-test.short", "-test.v")
	cmd.Env = append(os.Environ(), "LINALG_EXP_CHILD=1", "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GODEBUG=cpu.fma=off child: %v\n%s", err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "GODEBUG=") {
			t.Log(line)
		}
	}
}

// FuzzExpInto reads the input as float64 lanes and requires ExpInto to
// match math.Exp bit for bit, separately and in place.
func FuzzExpInto(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0, 1, -1, 0.5))
	f.Add(seed(-3, -0.25, -17, 2, -745.2, 709.8))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), -708.4, 1e-310))
	f.Fuzz(func(t *testing.T, b []byte) {
		src := make([]float64, len(b)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkExpInto(t, "fuzz", src)
	})
}

func BenchmarkExpInto(b *testing.B) {
	for _, path := range []string{"vector", "scalar"} {
		for _, n := range []int{30, 1275} {
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				if path == "vector" && !vectorExp {
					b.Skip("vector path not in use on this platform")
				}
				saved := vectorExp
				vectorExp = path == "vector"
				defer func() { vectorExp = saved }()
				rng := rand.New(rand.NewSource(1))
				src, dst := make([]float64, n), make([]float64, n)
				for i := range src {
					src[i] = -3 * rng.ExpFloat64()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ExpInto(dst, src)
				}
			})
		}
	}
}
