package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization fails even
// after the maximum jitter escalation.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ together with the
// jitter that had to be added to the diagonal to make the factorization
// succeed (zero when A was numerically SPD as given).
//
// The factor storage may be larger than the logical dimension: L is an s×s
// matrix with s = Cap() ≥ N, of which only the top-left N×N lower triangle is
// meaningful. All methods index with stride L.Cols, so a factor can grow to
// N+1 in place via AppendRow (and shrink via DropLast) without reallocating
// until the capacity is exhausted — the primitive behind the GP layer's
// O(n²) incremental updates.
type Cholesky struct {
	L      *Matrix
	N      int
	Jitter float64

	work []float64 // rank-1 update/downdate scratch, lazily grown
}

// cholBlock is the column-block width of the blocked factorization. Blocks
// keep the active panel resident in cache; the accumulation order within
// every dot product is unchanged versus the unblocked algorithm, so the
// factor is bit-identical to the reference column-by-column code.
const cholBlock = 48

// Cap returns the factor's storage capacity: the largest dimension this
// Cholesky can hold without reallocating.
func (c *Cholesky) Cap() int {
	if c.L == nil {
		return 0
	}
	return c.L.Cols
}

// NewCholesky factorizes the symmetric matrix a (only the lower triangle is
// read). If the plain factorization fails, an escalating diagonal jitter
// starting at 1e-10·mean(diag) is added, up to maxTries doublings by 10×.
// a is not modified.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	return NewCholeskyReuse(a, nil)
}

// NewCholeskyReuse is NewCholesky with buffer reuse: when reuse is non-nil
// and its capacity admits the dimension, its L storage is overwritten in
// place and the same *Cholesky is returned. The GP training loop calls this
// once per objective evaluation, so reuse removes the dominant per-iteration
// allocation.
//
// Growth past the capacity is explicit, never silent: the replacement buffer
// doubles the old capacity (at least), so a factor that is reused across a
// growing dataset reallocates O(log n) times instead of every call and the
// steady state of incremental AppendRow updates stays allocation-free.
func NewCholeskyReuse(a *Matrix, reuse *Cholesky) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: cholesky of non-square %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	c := reuse
	if c == nil {
		c = &Cholesky{L: NewMatrix(n, n), N: n}
	} else if c.Cap() < n {
		// Capacity-doubling growth: the next few increments are free.
		newCap := 2 * c.Cap()
		if newCap < n {
			newCap = n
		}
		c.L = NewMatrix(newCap, newCap)
	}
	c.N = n
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += math.Abs(a.At(i, i))
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	if meanDiag == 0 {
		meanDiag = 1
	}
	const maxTries = 8
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		if choleskyInto(a, jitter, c.L) {
			c.Jitter = jitter
			return c, nil
		}
		if jitter == 0 {
			jitter = 1e-10 * meanDiag
		} else {
			jitter *= 10
		}
	}
	return nil, ErrNotPositiveDefinite
}

// choleskyInto writes the lower-triangular factor of a + jitter·I into the
// top-left block of L (upper triangle of that block zeroed), using a
// right-looking blocked algorithm. L may be larger than a; rows are indexed
// with stride L.Cols. Each element's subtraction sequence runs over k
// ascending exactly as in the textbook column algorithm, so the result is
// bit-identical to it.
func choleskyInto(a *Matrix, jitter float64, L *Matrix) bool {
	n := a.Rows
	s := L.Cols
	// Seed L's lower triangle with a (+ jitter on the diagonal); the factor
	// is computed in place by subtracting the already-final columns.
	for i := 0; i < n; i++ {
		ai := a.Data[i*a.Cols : i*a.Cols+i+1]
		li := L.Data[i*s : i*s+n]
		copy(li[:i+1], ai)
		li[i] += jitter
		for j := i + 1; j < n; j++ {
			li[j] = 0
		}
	}
	for k0 := 0; k0 < n; k0 += cholBlock {
		k1 := k0 + cholBlock
		if k1 > n {
			k1 = n
		}
		// Factor the diagonal block in place (columns k0..k1 only depend on
		// columns ≥ k0 after the trailing updates of earlier blocks).
		for j := k0; j < k1; j++ {
			lj := L.Data[j*s+k0 : j*s+j]
			d := L.Data[j*s+j]
			for _, v := range lj {
				d -= v * v
			}
			if d <= 0 || math.IsNaN(d) {
				return false
			}
			ljj := math.Sqrt(d)
			L.Data[j*s+j] = ljj
			for i := j + 1; i < k1; i++ {
				sum := L.Data[i*s+j]
				li := L.Data[i*s+k0 : i*s+j]
				for t, v := range lj {
					sum -= li[t] * v
				}
				L.Data[i*s+j] = sum / ljj
			}
		}
		if k1 == n {
			break
		}
		// Panel solve: rows below the block against the block's triangle.
		for i := k1; i < n; i++ {
			li := L.Data[i*s+k0 : i*s+k1]
			for j := k0; j < k1; j++ {
				sum := li[j-k0]
				lj := L.Data[j*s+k0 : j*s+j]
				for t, v := range lj {
					sum -= li[t] * v
				}
				li[j-k0] = sum / L.Data[j*s+j]
			}
		}
		// Trailing update of the remaining lower triangle:
		// A22 ← A22 − L21·L21ᵀ, row by contiguous row.
		for i := k1; i < n; i++ {
			li := L.Data[i*s+k0 : i*s+k1]
			row := L.Data[i*s : i*s+i+1]
			for j := k1; j <= i; j++ {
				lj := L.Data[j*s+k0 : j*s+k1]
				sum := row[j]
				for t, v := range li {
					sum -= v * lj[t]
				}
				row[j] = sum
			}
		}
	}
	return true
}

// AppendRow extends the factor from N to N+1 in O(N²): given the
// cross-covariance row a (len N, the new point against the existing ones) and
// the new diagonal element d, it computes the bordered update
//
//	l = L⁻¹·a,   λ = √(d − l·l),   L ← [L 0; lᵀ λ],
//
// which is exactly the factor of the bordered matrix [A a; aᵀ d]. The
// existing N×N block is untouched, so DropLast restores the previous factor
// bit-identically. When the Schur complement d − l·l is not positive, an
// escalating jitter (starting at 1e-10·|d|) is added to the new diagonal
// only, mirroring NewCholesky's escalation; ErrNotPositiveDefinite is
// returned when even that fails, leaving the factor logically unchanged.
//
// Storage grows by capacity doubling when the factor is full; in steady
// state (capacity available) AppendRow allocates nothing.
func (c *Cholesky) AppendRow(a []float64, d float64) error {
	n := c.N
	if len(a) != n {
		panic(fmt.Sprintf("linalg: append row length %d != %d", len(a), n))
	}
	if c.Cap() < n+1 {
		c.grow(n + 1)
	}
	s := c.L.Cols
	l := c.L.Data[n*s : n*s+n]
	// Forward solve L·l = a against the existing triangle.
	for i := 0; i < n; i++ {
		sum := a[i]
		li := c.L.Data[i*s : i*s+i]
		for k, v := range li {
			sum -= v * l[k]
		}
		l[i] = sum / c.L.Data[i*s+i]
	}
	schur := d
	for _, v := range l {
		schur -= v * v
	}
	base := math.Abs(d)
	if base == 0 {
		base = 1
	}
	const maxTries = 8
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		if v := schur + jitter; v > 0 && !math.IsNaN(v) {
			c.L.Data[n*s+n] = math.Sqrt(v)
			if jitter > c.Jitter {
				c.Jitter = jitter
			}
			c.N = n + 1
			return nil
		}
		if jitter == 0 {
			jitter = 1e-10 * base
		} else {
			jitter *= 10
		}
	}
	return ErrNotPositiveDefinite
}

// DropLast shrinks the factor by k rows in O(1) — the retraction matching
// AppendRow. Because a bordered update never touches the leading block, the
// remaining factor is bit-identical to the one before the appends: fantasy
// observations can be pushed for batch proposals and popped before any real
// state sees them.
func (c *Cholesky) DropLast(k int) {
	if k < 0 || k > c.N {
		panic(fmt.Sprintf("linalg: drop %d rows from factor of %d", k, c.N))
	}
	c.N -= k
}

// grow reallocates the factor storage with at least minCap capacity (doubling
// the old capacity when that is larger), copying the live triangle.
func (c *Cholesky) grow(minCap int) {
	newCap := 2 * c.Cap()
	if newCap < minCap {
		newCap = minCap
	}
	nl := NewMatrix(newCap, newCap)
	if c.L != nil {
		oldS := c.L.Cols
		for i := 0; i < c.N; i++ {
			copy(nl.Data[i*newCap:i*newCap+i+1], c.L.Data[i*oldS:i*oldS+i+1])
		}
	}
	c.L = nl
}

// RankOneUpdate rewrites the factor to that of A + v·vᵀ in O(N²) using the
// classic Givens-based sweep. v is not modified. An update always succeeds:
// A + v·vᵀ is SPD whenever A is.
func (c *Cholesky) RankOneUpdate(v []float64) {
	n := c.N
	if len(v) != n {
		panic(fmt.Sprintf("linalg: rank-1 update length %d != %d", len(v), n))
	}
	w := c.scratch(n)
	copy(w, v)
	s := c.L.Cols
	for k := 0; k < n; k++ {
		lkk := c.L.Data[k*s+k]
		r := math.Hypot(lkk, w[k])
		cth := r / lkk
		sth := w[k] / lkk
		c.L.Data[k*s+k] = r
		for i := k + 1; i < n; i++ {
			lik := (c.L.Data[i*s+k] + sth*w[i]) / cth
			w[i] = cth*w[i] - sth*lik
			c.L.Data[i*s+k] = lik
		}
	}
}

// RankOneDowndate rewrites the factor to that of A − v·vᵀ in O(N²) — the
// inverse of RankOneUpdate(v). v is not modified. When A − v·vᵀ is not
// positive definite the factor is left in an undefined state and
// ErrNotPositiveDefinite is returned; callers retract speculative updates
// with the matching downdate (or DropLast for bordered rows), where the
// operation is well-posed by construction.
func (c *Cholesky) RankOneDowndate(v []float64) error {
	n := c.N
	if len(v) != n {
		panic(fmt.Sprintf("linalg: rank-1 downdate length %d != %d", len(v), n))
	}
	w := c.scratch(n)
	copy(w, v)
	s := c.L.Cols
	for k := 0; k < n; k++ {
		lkk := c.L.Data[k*s+k]
		d := (lkk - w[k]) * (lkk + w[k])
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		r := math.Sqrt(d)
		cth := r / lkk
		sth := w[k] / lkk
		c.L.Data[k*s+k] = r
		for i := k + 1; i < n; i++ {
			lik := (c.L.Data[i*s+k] - sth*w[i]) / cth
			w[i] = cth*w[i] - sth*lik
			c.L.Data[i*s+k] = lik
		}
	}
	return nil
}

func (c *Cholesky) scratch(n int) []float64 {
	if cap(c.work) < n {
		c.work = make([]float64, n)
	}
	return c.work[:n]
}

// SolveVec solves A·x = b, returning x as a new vector.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, c.N)
	c.SolveVecInto(b, x)
	return x
}

// SolveVecInto solves A·x = b into x (len N). x may alias b.
func (c *Cholesky) SolveVecInto(b, x []float64) {
	c.ForwardSolveInto(b, x)
	c.BackwardSolveInto(x, x)
}

// ForwardSolveInto solves L·y = b into y (len N). y may alias b: element i
// is read before it is written and only already-final elements are consumed.
func (c *Cholesky) ForwardSolveInto(b, y []float64) {
	n := c.N
	if len(b) != n || len(y) != n {
		panic(fmt.Sprintf("linalg: forward solve lengths %d/%d != %d", len(b), len(y), n))
	}
	s := c.L.Cols
	for i := 0; i < n; i++ {
		sum := b[i]
		row := c.L.Data[i*s : i*s+i]
		for k, v := range row {
			sum -= v * y[k]
		}
		y[i] = sum / c.L.Data[i*s+i]
	}
}

// ForwardSolveBlockInto solves L·Y = B for S right-hand sides at once. B and
// Y are N×S blocks stored row-major: element (i, s) of column s is b[i*S+s].
// Each column takes exactly ForwardSolveInto's operations, the subtractions
// in k-order and then the division, so every column of y is bit-identical to
// a single-RHS solve of that column of b. The block only interleaves the S
// independent chains, which then overlap instead of each waiting on its own
// latency: row i is one rowSolve against L's row i and the finished rows of
// y, which on amd64 keeps the row in AVX2 registers across the whole k loop.
// y may alias b.
func (c *Cholesky) ForwardSolveBlockInto(b, y []float64, S int) {
	n := c.N
	if S < 0 || len(b) != n*S || len(y) != n*S {
		panic(fmt.Sprintf("linalg: block forward solve lengths %d/%d != %d×%d", len(b), len(y), n, S))
	}
	st := c.L.Cols
	for i := 0; i < n; i++ {
		row := c.L.Data[i*st : i*st+i+1]
		rowSolve(y[i*S:(i+1)*S], b[i*S:(i+1)*S], row, 1, y[:i*S], S, i, row[i])
	}
}

// BackwardSolveInto solves Lᵀ·x = y into x (len N). x may alias y.
func (c *Cholesky) BackwardSolveInto(y, x []float64) {
	n := c.N
	if len(y) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: backward solve lengths %d/%d != %d", len(y), len(x), n))
	}
	s := c.L.Cols
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= c.L.Data[k*s+i] * x[k]
		}
		x[i] = sum / c.L.Data[i*s+i]
	}
}

// backwardSolveBlockInto solves Lᵀ·X = Y for S right-hand sides at once, the
// block counterpart of BackwardSolveInto with ForwardSolveBlockInto's layout
// and guarantee: each column takes exactly BackwardSolveInto's operations, so
// it is bit-identical to a single-RHS solve of that column. Row i is one
// rowSolve against L's column i below the diagonal (stride L.Cols) and the
// rows of x below i. x may alias y.
func (c *Cholesky) backwardSolveBlockInto(y, x []float64, S int) {
	n := c.N
	st := c.L.Cols
	for i := n - 1; i >= 0; i-- {
		var col []float64
		if i+1 < n {
			col = c.L.Data[(i+1)*st+i:]
		}
		rowSolve(x[i*S:(i+1)*S], y[i*S:(i+1)*S], col, st, x[(i+1)*S:], S, n-1-i, c.L.Data[i*st+i])
	}
}

// InverseInto writes A⁻¹ into dst (N×N), allocating nothing. It solves the
// identity as one block, forward then backward, in dst's own storage; column
// j takes exactly the operations of SolveVecInto on the unit vector e_j, so
// every entry is bit-identical to the per-column solve. The GP gradient loop
// calls this once per NLML gradient.
func (c *Cholesky) InverseInto(dst *Matrix) {
	n := c.N
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("linalg: inverse into %d×%d, want %d×%d", dst.Rows, dst.Cols, n, n))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
	}
	c.ForwardSolveBlockInto(dst.Data, dst.Data, n)
	c.backwardSolveBlockInto(dst.Data, dst.Data, n)
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	sum := 0.0
	n := c.N
	s := c.L.Cols
	for i := 0; i < n; i++ {
		sum += math.Log(c.L.Data[i*s+i])
	}
	return 2 * sum
}
