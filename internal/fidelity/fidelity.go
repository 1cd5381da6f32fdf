// Package fidelity models the simulation accuracy axis as a first-class
// ladder of rungs rather than a low/high bool.
//
// A Ladder is an ordered list of K >= 1 rungs. Rung 0 is the cheapest
// simulation configuration (shortest transient, fewest corners), rung K-1 is
// the full-accuracy target whose cost defines the unit of equivalent
// simulations. Every other rung carries a relative cost gamma_k in (0, 1).
// The two-fidelity engine of the source paper is the K=2 special case: rung 0
// is "low" with cost gamma, rung 1 is "high" with cost 1. A one-rung ladder
// is just the target ("high"): single-fidelity optimization, the WEIBO
// baseline.
//
// The package is deliberately tiny and dependency-light: the core engine, the
// catalog, the wire API and the CLI all consume the same Ladder value, so the
// rung count and the per-rung costs have exactly one source of truth per
// problem.
package fidelity

import (
	"fmt"

	"repro/internal/problem"
)

// Rung is one level of a fidelity ladder.
type Rung struct {
	// Name is a short human-readable label ("low", "mid1", "high").
	Name string
	// Cost is the price of one evaluation at this rung, expressed in
	// equivalent target-rung simulations. The target rung has Cost == 1.
	Cost float64
}

// Ladder is an immutable ordered list of fidelity rungs. The zero value is
// invalid; construct one with New, TwoLevel, FromCosts or OfProblem.
type Ladder struct {
	rungs []Rung
}

// New builds a ladder from explicit rungs. It returns an error unless there
// is at least one rung, costs are strictly increasing and positive, and the
// final rung costs exactly 1.
func New(rungs []Rung) (Ladder, error) {
	if len(rungs) == 0 {
		return Ladder{}, fmt.Errorf("fidelity: ladder needs at least 1 rung")
	}
	prev := 0.0
	for k, r := range rungs {
		if r.Cost <= prev {
			return Ladder{}, fmt.Errorf("fidelity: rung %d cost %g not strictly increasing and positive", k, r.Cost)
		}
		prev = r.Cost
	}
	if last := rungs[len(rungs)-1].Cost; last != 1 {
		return Ladder{}, fmt.Errorf("fidelity: target rung must cost exactly 1, got %g", last)
	}
	cp := make([]Rung, len(rungs))
	copy(cp, rungs)
	return Ladder{rungs: cp}, nil
}

// FromCosts builds a ladder from relative costs alone, naming the rungs
// low / mid1..midN / high.
func FromCosts(costs []float64) (Ladder, error) {
	rungs := make([]Rung, len(costs))
	for k, c := range costs {
		rungs[k] = Rung{Name: rungName(k, len(costs)), Cost: c}
	}
	return New(rungs)
}

// TwoLevel is the paper's two-fidelity ladder: rung 0 ("low") at relative
// cost gamma, rung 1 ("high") at cost 1.
func TwoLevel(gamma float64) (Ladder, error) {
	return FromCosts([]float64{gamma, 1})
}

// rungName matches the legacy two-fidelity vocabulary at the extremes so that
// telemetry strings are unchanged for K=2; the single rung of a one-rung
// ladder is the target, "high".
func rungName(k, total int) string {
	switch {
	case k == total-1:
		return "high"
	case k == 0:
		return "low"
	default:
		return fmt.Sprintf("mid%d", k)
	}
}

// Rungs returns the number of rungs K.
func (l Ladder) Rungs() int { return len(l.rungs) }

// Target returns the index of the full-accuracy rung, K-1.
func (l Ladder) Target() int { return len(l.rungs) - 1 }

// Cost returns the relative cost of rung k.
func (l Ladder) Cost(k int) float64 { return l.rungs[k].Cost }

// Name returns the label of rung k.
func (l Ladder) Name(k int) string { return l.rungs[k].Name }

// Costs returns a copy of the per-rung relative costs.
func (l Ladder) Costs() []float64 {
	out := make([]float64, len(l.rungs))
	for k, r := range l.rungs {
		out[k] = r.Cost
	}
	return out
}

// OfProblem derives a problem's ladder from its Cost schedule. The rung count
// comes from problem.NumFidelities (2 unless the problem implements
// problem.MultiFidelity), and cost k is normalized by the target rung's cost:
//
//	gamma_k = p.Cost(Fidelity(k)) / p.Cost(Fidelity(K-1))
//
// For K=2 this reproduces the engine's historical costLow ratio bit for bit.
func OfProblem(p problem.Problem) (Ladder, error) {
	k := problem.NumFidelities(p)
	target := p.Cost(problem.Fidelity(k - 1))
	if target <= 0 {
		return Ladder{}, fmt.Errorf("fidelity: problem %q target rung cost %g must be positive", p.Name(), target)
	}
	costs := make([]float64, k)
	for r := 0; r < k; r++ {
		costs[r] = p.Cost(problem.Fidelity(r)) / target
	}
	return FromCosts(costs)
}

// TwoFidelityView restricts a K-rung problem to its bottom and top rungs so
// the ladder and the classic two-fidelity engine can be compared on the same
// simulator. Evaluations at problem.Low map to rung 0 and everything else to
// the target rung; Cost follows the same mapping.
type TwoFidelityView struct {
	inner  problem.Problem
	target problem.Fidelity
}

// NewTwoFidelityView wraps p. If p has only two rungs the wrapper is a
// transparent rename.
func NewTwoFidelityView(p problem.Problem) *TwoFidelityView {
	return &TwoFidelityView{inner: p, target: problem.TargetFidelity(p)}
}

func (v *TwoFidelityView) Name() string { return v.inner.Name() + "-2f" }

func (v *TwoFidelityView) Dim() int { return v.inner.Dim() }

func (v *TwoFidelityView) Bounds() (lo, hi []float64) { return v.inner.Bounds() }

func (v *TwoFidelityView) NumConstraints() int { return v.inner.NumConstraints() }

func (v *TwoFidelityView) map2f(f problem.Fidelity) problem.Fidelity {
	if f == problem.Low {
		return problem.Low
	}
	return v.target
}

func (v *TwoFidelityView) Evaluate(x []float64, f problem.Fidelity) problem.Evaluation {
	return v.inner.Evaluate(x, v.map2f(f))
}

func (v *TwoFidelityView) Cost(f problem.Fidelity) float64 { return v.inner.Cost(v.map2f(f)) }

// NumFidelities pins the view at two rungs so problem.NumFidelities does not
// unwrap through to the inner ladder.
func (v *TwoFidelityView) NumFidelities() int { return 2 }

// Unwrap exposes the underlying K-rung problem.
func (v *TwoFidelityView) Unwrap() problem.Problem { return v.inner }
