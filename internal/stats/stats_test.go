package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNormPDFSymmetryAndPeak(t *testing.T) {
	if got, want := NormPDF(0), 1/math.Sqrt(2*math.Pi); math.Abs(got-want) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v, want %v", got, want)
	}
	for _, x := range []float64{0.3, 1, 2.5, 7} {
		if math.Abs(NormPDF(x)-NormPDF(-x)) > 1e-16 {
			t.Fatalf("pdf not symmetric at %v", x)
		}
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("mean/median %v/%v", s.Mean, s.Median)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-wantStd) > 1e-14 {
		t.Fatalf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Median != 7 || s.Std != 0 || s.Min != 7 || s.Max != 7 {
		t.Fatalf("single-point summary %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if got := Quantile(sorted, 0.5); got != 25 {
		t.Fatalf("median = %v, want 25", got)
	}
	if got := Quantile(sorted, 0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(sorted, 1); got != 40 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestUniformInBoxBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lo, hi := []float64{-1, 5}, []float64{1, 6}
	pts := UniformInBox(rng, lo, hi, 200)
	if len(pts) != 200 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		for j := range p {
			if p[j] < lo[j] || p[j] > hi[j] {
				t.Fatalf("point %v outside box", p)
			}
		}
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 50
	lo, hi := []float64{0, 0}, []float64{1, 10}
	pts := LatinHypercube(rng, lo, hi, n)
	// Each dimension: exactly one point per stratum.
	for j := 0; j < 2; j++ {
		seen := make([]bool, n)
		for _, p := range pts {
			u := (p[j] - lo[j]) / (hi[j] - lo[j])
			k := int(u * float64(n))
			if k == n {
				k = n - 1
			}
			if seen[k] {
				t.Fatalf("dimension %d stratum %d hit twice", j, k)
			}
			seen[k] = true
		}
	}
}

func TestGaussianBallClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lo, hi := []float64{0}, []float64{1}
	pts := GaussianBall(rng, []float64{0.99}, lo, hi, 0.5, 500)
	for _, p := range pts {
		if p[0] < 0 || p[0] > 1 {
			t.Fatalf("point %v escaped the box", p)
		}
	}
	// With a wide sigma around 0.99 many points should clip to exactly 1.
	clipped := 0
	for _, p := range pts {
		if p[0] == 1 {
			clipped++
		}
	}
	if clipped == 0 {
		t.Fatal("expected some clipped points")
	}
}

func TestGaussHermiteMoments(t *testing.T) {
	for _, n := range []int{1, 3, 5, 10, 20, 31} {
		nodes, weights := GaussHermite(n)
		if len(nodes) != n || len(weights) != n {
			t.Fatalf("n=%d: wrong sizes", n)
		}
		m0, m1, m2, m4 := 0.0, 0.0, 0.0, 0.0
		for i := range nodes {
			m0 += weights[i]
			m1 += weights[i] * nodes[i]
			m2 += weights[i] * nodes[i] * nodes[i]
			m4 += weights[i] * math.Pow(nodes[i], 4)
		}
		if math.Abs(m0-1) > 1e-12 {
			t.Fatalf("n=%d: Σw = %v", n, m0)
		}
		if math.Abs(m1) > 1e-10 {
			t.Fatalf("n=%d: E[z] = %v", n, m1)
		}
		if n >= 2 && math.Abs(m2-1) > 1e-9 {
			t.Fatalf("n=%d: E[z²] = %v", n, m2)
		}
		if n >= 3 && math.Abs(m4-3) > 1e-8 {
			t.Fatalf("n=%d: E[z⁴] = %v, want 3", n, m4)
		}
	}
}

func TestGaussHermiteIntegratesSmoothFunction(t *testing.T) {
	// E[exp(z)] = e^{1/2} for standard normal z.
	nodes, weights := GaussHermite(20)
	s := 0.0
	for i := range nodes {
		s += weights[i] * math.Exp(nodes[i])
	}
	if math.Abs(s-math.Exp(0.5)) > 1e-10 {
		t.Fatalf("E[e^z] = %v, want %v", s, math.Exp(0.5))
	}
}

func TestGaussHermiteNodesSorted(t *testing.T) {
	nodes, _ := GaussHermite(15)
	if !sort.Float64sAreSorted(nodes) {
		t.Fatalf("nodes not sorted: %v", nodes)
	}
}
