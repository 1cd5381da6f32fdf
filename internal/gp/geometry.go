package gp

// pairGeo is the kernel-geometry cache: the per-dimension pairwise difference
// tensor Δ(i,j)[d] = x_i[d] − x_j[d] over the standardized training set,
// stored once per Fit for the upper triangle (i ≤ j) and shared read-only by
// every restart workspace. With a kernel.PairProfile the ARD-SE covariance
// (and its gradient) becomes a cached-difference dot product per pair — the
// training-set coordinates are never re-read and no per-pair exp of the
// length scales is ever taken inside the O(n²) loops.
type pairGeo struct {
	n, d   int
	diffs  []float64 // pair-major: pair p occupies diffs[p*d : (p+1)*d]
	rowOff []int     // rowOff[i] = index of pair (i, i); pair (i,j) = rowOff[i]+j−i
}

// newPairGeo builds the difference tensor for the standardized inputs xs.
func newPairGeo(xs [][]float64) *pairGeo {
	n := len(xs)
	if n == 0 {
		return &pairGeo{}
	}
	d := len(xs[0])
	g := &pairGeo{n: n, d: d, rowOff: make([]int, n)}
	nPairs := n * (n + 1) / 2
	g.diffs = make([]float64, nPairs*d)
	p := 0
	for i := 0; i < n; i++ {
		g.rowOff[i] = p
		xi := xs[i]
		for j := i; j < n; j++ {
			xj := xs[j]
			row := g.diffs[p*d : p*d+d]
			for t := 0; t < d; t++ {
				row[t] = xi[t] - xj[t]
			}
			p++
		}
	}
	return g
}

// pair returns the index of pair (i, j) in the cache's upper-triangle
// order. Requires i ≤ j.
func (g *pairGeo) pair(i, j int) int { return g.rowOff[i] + j - i }

// diff returns the cached difference vector x_i − x_j. Requires i ≤ j.
func (g *pairGeo) diff(i, j int) []float64 {
	p := g.pair(i, j)
	return g.diffs[p*g.d : p*g.d+g.d]
}
