package linalg

import (
	"math/rand"
	"testing"
)

// factorEq compares the live lower triangles of two factors within tol
// (relative to the larger magnitude).
func factorEq(a, b *Cholesky, tol float64) bool {
	if a.N != b.N {
		return false
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j <= i; j++ {
			if !almostEq(a.L.At(i, j), b.L.At(i, j), tol) {
				return false
			}
		}
	}
	return true
}

// TestAppendRowMatchesFreshFactorization grows factors one bordered update at
// a time over 200 random SPD sequences and pins each intermediate factor to a
// from-scratch factorization of the same leading submatrix.
func TestAppendRowMatchesFreshFactorization(t *testing.T) {
	for seq := 0; seq < 200; seq++ {
		rng := rand.New(rand.NewSource(int64(1000 + seq)))
		nMax := 2 + rng.Intn(24)
		a := randomSPD(rng, nMax)
		n0 := 1 + rng.Intn(nMax)
		lead := NewMatrix(n0, n0)
		for i := 0; i < n0; i++ {
			for j := 0; j < n0; j++ {
				lead.Set(i, j, a.At(i, j))
			}
		}
		c, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("seq %d: seed factorization: %v", seq, err)
		}
		for n := n0; n < nMax; n++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = a.At(n, j)
			}
			if err := c.AppendRow(row, a.At(n, n)); err != nil {
				t.Fatalf("seq %d: append to n=%d: %v", seq, n, err)
			}
			sub := NewMatrix(n+1, n+1)
			for i := 0; i <= n; i++ {
				for j := 0; j <= n; j++ {
					sub.Set(i, j, a.At(i, j))
				}
			}
			fresh, err := NewCholesky(sub)
			if err != nil {
				t.Fatalf("seq %d: fresh factorization n=%d: %v", seq, n+1, err)
			}
			if !factorEq(c, fresh, 1e-9) {
				t.Fatalf("seq %d: incremental factor diverged from fresh at n=%d", seq, n+1)
			}
		}
	}
}

// TestAppendThenDropRestoresFactorBitwise proves DropLast is an exact
// retraction: pushing k bordered rows and popping them returns the original
// factor bit-for-bit (the leading block is never touched by AppendRow).
func TestAppendThenDropRestoresFactorBitwise(t *testing.T) {
	for seq := 0; seq < 200; seq++ {
		rng := rand.New(rand.NewSource(int64(5000 + seq)))
		nMax := 3 + rng.Intn(20)
		a := randomSPD(rng, nMax)
		n0 := 1 + rng.Intn(nMax-1)
		lead := NewMatrix(n0, n0)
		for i := 0; i < n0; i++ {
			for j := 0; j < n0; j++ {
				lead.Set(i, j, a.At(i, j))
			}
		}
		c, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		before := make([]float64, 0, n0*(n0+1)/2)
		for i := 0; i < n0; i++ {
			for j := 0; j <= i; j++ {
				before = append(before, c.L.At(i, j))
			}
		}
		k := nMax - n0
		for n := n0; n < nMax; n++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = a.At(n, j)
			}
			if err := c.AppendRow(row, a.At(n, n)); err != nil {
				t.Fatalf("seq %d: append: %v", seq, err)
			}
		}
		c.DropLast(k)
		if c.N != n0 {
			t.Fatalf("seq %d: N=%d after retraction, want %d", seq, c.N, n0)
		}
		idx := 0
		for i := 0; i < n0; i++ {
			for j := 0; j <= i; j++ {
				if c.L.At(i, j) != before[idx] {
					t.Fatalf("seq %d: L[%d,%d] changed across append+drop", seq, i, j)
				}
				idx++
			}
		}
	}
}

// TestRankOneUpdateDowndateRoundTrip checks both directions over 200 random
// SPD matrices: the updated factor matches a fresh factorization of A + vvᵀ,
// and downdating with the same vector returns (within roundoff) the original.
func TestRankOneUpdateDowndateRoundTrip(t *testing.T) {
	for seq := 0; seq < 200; seq++ {
		rng := rand.New(rand.NewSource(int64(9000 + seq)))
		n := 1 + rng.Intn(16)
		a := randomSPD(rng, n)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		orig, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		c.RankOneUpdate(v)
		up := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				up.Add(i, j, v[i]*v[j])
			}
		}
		fresh, err := NewCholesky(up)
		if err != nil {
			t.Fatalf("seq %d: fresh updated factorization: %v", seq, err)
		}
		if !factorEq(c, fresh, 1e-8) {
			t.Fatalf("seq %d: rank-1 update diverged from fresh factorization", seq)
		}
		if err := c.RankOneDowndate(v); err != nil {
			t.Fatalf("seq %d: downdate: %v", seq, err)
		}
		if !factorEq(c, orig, 1e-7) {
			t.Fatalf("seq %d: update+downdate did not restore the original factor", seq)
		}
	}
}

func TestRankOneDowndateRejectsIndefinite(t *testing.T) {
	a := Identity(3)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// I − vvᵀ with |v| > 1 is indefinite.
	if err := c.RankOneDowndate([]float64{2, 0, 0}); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite for an indefinite downdate")
	}
}

// TestReuseGrowthDoublesCapacity pins the explicit-growth contract of
// NewCholeskyReuse: growing past the capacity doubles it, and every
// subsequent reuse within the capacity keeps the same backing array.
func TestReuseGrowthDoublesCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c, err := NewCholesky(randomSPD(rng, 10))
	if err != nil {
		t.Fatal(err)
	}
	if c.Cap() != 10 {
		t.Fatalf("fresh capacity %d, want 10", c.Cap())
	}
	c, err = NewCholeskyReuse(randomSPD(rng, 11), c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cap() != 20 {
		t.Fatalf("grown capacity %d, want doubled 20", c.Cap())
	}
	base := &c.L.Data[0]
	for n := 12; n <= 20; n++ {
		c, err = NewCholeskyReuse(randomSPD(rng, n), c)
		if err != nil {
			t.Fatal(err)
		}
		if &c.L.Data[0] != base {
			t.Fatalf("reuse at n=%d reallocated within capacity", n)
		}
	}
}

// TestAppendRowSteadyStateZeroAlloc proves the incremental hot path allocates
// nothing once capacity is available: an append+retract cycle at constant
// size must be allocation-free.
func TestAppendRowSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 32
	a := randomSPD(rng, n+1)
	lead := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lead.Set(i, j, a.At(i, j))
		}
	}
	c, err := NewCholesky(lead)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, n)
	for j := range row {
		row[j] = a.At(n, j)
	}
	d := a.At(n, n)
	// First append grows the storage once; afterwards the cycle is free.
	if err := c.AppendRow(row, d); err != nil {
		t.Fatal(err)
	}
	c.DropLast(1)
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.AppendRow(row, d); err != nil {
			t.Fatal(err)
		}
		c.DropLast(1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendRow+DropLast allocates %v objects per cycle, want 0", allocs)
	}
}

// TestSolvesRespectStride runs the solver entry points on a factor whose
// storage capacity exceeds its logical dimension (post-growth state) and
// checks them against a fresh tight factor.
func TestSolvesRespectStride(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 12
	a := randomSPD(rng, n)
	tight, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	wide := &Cholesky{L: NewMatrix(40, 40)}
	wide, err = NewCholeskyReuse(a, wide)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Cap() != 40 {
		t.Fatalf("capacity %d, want 40", wide.Cap())
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xw, xt := wide.SolveVec(b), tight.SolveVec(b)
	for i := range xw {
		if xw[i] != xt[i] {
			t.Fatal("SolveVec differs between wide and tight storage")
		}
	}
	if wide.LogDet() != tight.LogDet() {
		t.Fatal("LogDet differs between wide and tight storage")
	}
	iw, it := NewMatrix(wide.N, wide.N), NewMatrix(tight.N, tight.N)
	wide.InverseInto(iw)
	tight.InverseInto(it)
	for i := range iw.Data {
		if iw.Data[i] != it.Data[i] {
			t.Fatal("InverseInto differs between wide and tight storage")
		}
	}
}

func BenchmarkAppendRowSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	n := 200
	a := randomSPD(rng, n+1)
	lead := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lead.Set(i, j, a.At(i, j))
		}
	}
	c, err := NewCholesky(lead)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]float64, n)
	for j := range row {
		row[j] = a.At(n, j)
	}
	d := a.At(n, n)
	if err := c.AppendRow(row, d); err != nil {
		b.Fatal(err)
	}
	c.DropLast(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AppendRow(row, d); err != nil {
			b.Fatal(err)
		}
		c.DropLast(1)
	}
}
