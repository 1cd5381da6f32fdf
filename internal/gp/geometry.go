package gp

// pairGeo is the kernel-geometry cache: the pairwise differences
// Δ(i,j)[t] = x_i[t] − x_j[t] over the standardized training set, stored
// once per Fit for the upper triangle (i ≤ j) and shared read-only by every
// restart workspace. The pairs are numbered row by row, (0,0), (0,1), …,
// (0,n−1), (1,1), …, and the differences are stored dimension-major: column
// t holds coordinate t of every pair in that order, the layout
// kernel.PairProfile's batch methods read. With it the ARD-SE covariance
// (and its gradient) becomes a cached-difference dot product per pair — the
// training-set coordinates are never re-read and no per-pair exp of the
// length scales is ever taken inside the O(n²) loops.
type pairGeo struct {
	n      int
	pairs  int       // n(n+1)/2
	diffs  []float64 // dimension-major: column t occupies diffs[t*pairs : (t+1)*pairs]
	rowOff []int     // rowOff[i] = index of pair (i, i); pair (i,j) = rowOff[i]+j−i
}

// newPairGeo builds the difference columns for the standardized inputs xs.
func newPairGeo(xs [][]float64) *pairGeo {
	n := len(xs)
	if n == 0 {
		return &pairGeo{}
	}
	d := len(xs[0])
	P := n * (n + 1) / 2
	g := &pairGeo{n: n, pairs: P, rowOff: make([]int, n), diffs: make([]float64, P*d)}
	p := 0
	for i := 0; i < n; i++ {
		g.rowOff[i] = p
		xi := xs[i]
		for j := i; j < n; j++ {
			xj := xs[j]
			for t := 0; t < d; t++ {
				g.diffs[t*P+p] = xi[t] - xj[t]
			}
			p++
		}
	}
	return g
}

// pair returns the index of pair (i, j) in the cache's upper-triangle
// order. Requires i ≤ j.
func (g *pairGeo) pair(i, j int) int { return g.rowOff[i] + j - i }
