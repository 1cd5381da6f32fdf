// Incremental model maintenance: fold new observations into a trained model
// with a bordered Cholesky update instead of refitting from scratch, and
// retract speculative (fantasy) observations exactly. This turns the common
// per-Tell path of the BO loop from O(n³) to O(n²); hyperparameters and the
// standardization transform stay frozen until the next full Fit.
package gp

import (
	"errors"
	"fmt"
	"math"
)

// AppendObservation folds one new observation (x, y) into the trained model
// without re-optimizing hyperparameters: the covariance factor is extended
// with a bordered rank-1 Cholesky update (O(n²)) and the weight vector α and
// NLML are recomputed from the updated factor. The standardization transform
// is frozen at its last full-Fit state, so the model is an approximation of a
// fresh fit on the extended dataset; callers interleave periodic full refits
// (see core's fit-skip schedule). On a low-rank model the inducing set stays
// fixed and the m×m information matrix receives a rank-1 update instead.
//
// An error (ErrNotPositiveDefinite after jitter escalation) leaves the model
// unchanged; callers should fall back to a full Fit.
func (m *Model) AppendObservation(x []float64, y float64) error {
	if m.chol == nil && m.lowRank == nil {
		return errors.New("gp: AppendObservation on an unfitted model")
	}
	if len(x) != len(m.xMean) {
		return fmt.Errorf("gp: append dim %d != %d", len(x), len(m.xMean))
	}
	sx := m.toStdX(x)
	sy := (y - m.yMean) / m.yStd
	if m.lowRank != nil {
		if err := m.lowRank.append(m, sx, sy); err != nil {
			return err
		}
		m.xs = append(m.xs, sx)
		m.ys = append(m.ys, sy)
		return nil
	}
	n := len(m.xs)
	sc := m.getPredictScratch()
	defer m.predScratch.Put(sc)
	sc.grow(n)
	row := sc.ks[:n]
	kernelRow(sc.prof, sx, m.xs, sc.diff, sc.factors(n), row)
	kss := sc.prof.Eval(zero(sc.diff))
	noise2 := math.Exp(2 * m.logNoise)
	if err := m.chol.AppendRow(row, kss+noise2); err != nil {
		return fmt.Errorf("gp: incremental factor update: %w", err)
	}
	m.xs = append(m.xs, sx)
	m.ys = append(m.ys, sy)
	m.refreshAlpha()
	return nil
}

// Truncate drops the trailing observations so the model again covers exactly
// the first n training points — the retraction matching AppendObservation,
// used to pop fantasy observations after a batch proposal. On the exact path
// the restored factor is bit-identical to the pre-append state (the bordered
// update never touches the leading block); on a low-rank model the m×m
// information matrix is rank-1-downdated per popped point.
func (m *Model) Truncate(n int) error {
	cur := len(m.xs)
	if n < 1 || n > cur {
		return fmt.Errorf("gp: truncate to %d of %d", n, cur)
	}
	if n == cur {
		return nil
	}
	if m.lowRank != nil {
		if err := m.lowRank.truncate(m, n); err != nil {
			return err
		}
		m.xs = m.xs[:n]
		m.ys = m.ys[:n]
		return nil
	}
	m.chol.DropLast(cur - n)
	m.xs = m.xs[:n]
	m.ys = m.ys[:n]
	m.refreshAlpha()
	return nil
}

// refreshAlpha recomputes α = K⁻¹y and the NLML from the current factor in
// O(n²), growing α by capacity doubling. The solve is factorize's SolveVec
// into α, so recomputing after a DropLast restores the pre-append α
// bit-identically.
func (m *Model) refreshAlpha() {
	n := len(m.xs)
	if cap(m.alpha) < n {
		m.alpha = make([]float64, n, 2*n)
	} else {
		m.alpha = m.alpha[:n]
	}
	m.chol.SolveVecInto(m.ys, m.alpha)
	m.nlml = nlmlOf(m.ys, m.alpha, m.chol)
}
