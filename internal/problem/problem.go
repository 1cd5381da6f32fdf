// Package problem defines the black-box optimization problem abstraction
// shared by the optimizer (internal/core), the baselines, the synthetic test
// functions and the circuit testbenches: a constrained minimization problem
// (eq. 1) whose objective and constraints can be evaluated at two fidelity
// levels with different costs.
package problem

import (
	"context"
	"fmt"
	"math"
)

// Fidelity selects an evaluation precision level.
type Fidelity int

const (
	// Low is the cheap, potentially inaccurate evaluation (short transient,
	// single PVT corner, coarse mesh…).
	Low Fidelity = iota
	// High is the accurate, expensive evaluation the optimizer ultimately
	// cares about.
	High
)

// String implements fmt.Stringer. Values beyond High are intermediate ladder
// rungs (see internal/fidelity); without the ladder in hand the best generic
// label is the rung index. Note that on a K>2 problem the top rung is
// Fidelity(K-1), not High — use fidelity.Ladder.Name for ladder-aware labels.
func (f Fidelity) String() string {
	switch f {
	case Low:
		return "low"
	case High:
		return "high"
	default:
		return fmt.Sprintf("rung%d", int(f))
	}
}

// Evaluation is the outcome of one simulation: the objective to minimize and
// the constraint values (feasible iff every entry is < 0, per eq. 1).
type Evaluation struct {
	Objective   float64
	Constraints []float64
	// Failed marks a synthesized penalty standing in for a simulation that
	// could not produce a result (crash, panic, timeout, non-finite output).
	// Failed evaluations are charged against the budget but excluded from
	// surrogate training and never considered feasible. The zero value
	// (false) preserves the semantics of every pre-existing construction
	// site.
	Failed bool `json:",omitempty"`
}

// Feasible reports whether all constraints are satisfied. A failed
// evaluation is never feasible.
func (e Evaluation) Feasible() bool {
	if e.Failed {
		return false
	}
	for _, c := range e.Constraints {
		if c >= 0 {
			return false
		}
	}
	return true
}

// IsFinite reports whether the objective and every constraint are finite
// (neither NaN nor ±Inf) — the precondition for feeding an evaluation to the
// surrogate stack.
func (e Evaluation) IsFinite() bool {
	if math.IsNaN(e.Objective) || math.IsInf(e.Objective, 0) {
		return false
	}
	for _, c := range e.Constraints {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// Violation returns the total constraint violation Σ max(0, c_i).
func (e Evaluation) Violation() float64 {
	s := 0.0
	for _, c := range e.Constraints {
		if c > 0 {
			s += c
		}
	}
	return s
}

// Outputs returns the packed output vector [objective, constraints...],
// the layout surrogate stacks are trained on.
func (e Evaluation) Outputs() []float64 {
	out := make([]float64, 0, 1+len(e.Constraints))
	out = append(out, e.Objective)
	return append(out, e.Constraints...)
}

// Problem is a two-fidelity constrained minimization problem.
type Problem interface {
	// Name identifies the problem in logs and tables.
	Name() string
	// Dim returns the number of design variables.
	Dim() int
	// Bounds returns the design box.
	Bounds() (lo, hi []float64)
	// NumConstraints returns the number of c_i(x) < 0 constraints.
	NumConstraints() int
	// Evaluate runs one simulation of x at fidelity f.
	Evaluate(x []float64, f Fidelity) Evaluation
	// Cost returns the evaluation cost at fidelity f, in arbitrary units.
	// Reported simulation counts are normalized by Cost(High).
	Cost(f Fidelity) float64
}

// PenaltyObjective is the canonical huge-but-finite objective assigned to
// failed evaluations. It is large enough to lose every comparison yet finite,
// so downstream arithmetic (tables, traces) stays well-defined.
const PenaltyObjective = 1e9

// PenaltyEvaluation returns the well-defined infeasible stand-in for a failed
// simulation on a problem with nc constraints: a PenaltyObjective objective,
// every constraint maximally violated, and the Failed marker set.
func PenaltyEvaluation(nc int) Evaluation {
	cons := make([]float64, nc)
	for i := range cons {
		cons[i] = PenaltyObjective
	}
	return Evaluation{Objective: PenaltyObjective, Constraints: cons, Failed: true}
}

// RichEvaluator is an optional extension of Problem for implementations that
// can report evaluation failure explicitly instead of encoding it in penalty
// values. Wrappers such as robust.Wrap implement it; the optimizer prefers it
// when available so that failed simulations can be excluded from surrogate
// training. Existing Problem implementations keep compiling unchanged.
type RichEvaluator interface {
	// EvaluateRich runs one simulation; a non-nil error means the simulation
	// failed and the returned Evaluation is a penalty stand-in (Failed set).
	EvaluateRich(x []float64, f Fidelity) (Evaluation, error)
}

// ContextEvaluator is an optional extension of Problem for implementations
// that honor cancellation and per-evaluation deadlines. robust.SafeProblem
// implements it; core.OptimizeCtx threads its context through when available.
type ContextEvaluator interface {
	EvaluateCtx(ctx context.Context, x []float64, f Fidelity) (Evaluation, error)
}

// EvaluateRich evaluates p at x, using the RichEvaluator fast path when p
// implements it and falling back to the plain Evaluate otherwise. In the
// fallback the evaluation is sanity-checked: non-finite outputs are converted
// into a penalty evaluation with an explanatory error.
func EvaluateRich(p Problem, x []float64, f Fidelity) (Evaluation, error) {
	if re, ok := p.(RichEvaluator); ok {
		return re.EvaluateRich(x, f)
	}
	e := p.Evaluate(x, f)
	if !e.IsFinite() {
		return PenaltyEvaluation(p.NumConstraints()),
			fmt.Errorf("problem %s: non-finite evaluation at fidelity %v", p.Name(), f)
	}
	return e, nil
}

// MultiFidelity is an optional extension of Problem for implementations with
// more than two fidelity rungs. Evaluate and Cost must accept every
// Fidelity(k) for k in [0, NumFidelities()); rung 0 is the cheapest and rung
// NumFidelities()-1 is the full-accuracy target. Two-fidelity problems need
// not implement it.
type MultiFidelity interface {
	NumFidelities() int
}

// Unwrapper is implemented by problem wrappers (robust.SafeProblem,
// fidelity.TwoFidelityView) that decorate an inner problem. NumFidelities
// follows the chain so wrapping never hides a ladder.
type Unwrapper interface {
	Unwrap() Problem
}

// NumFidelities reports the number of fidelity rungs p exposes, following
// wrapper chains; plain problems have the classic two.
func NumFidelities(p Problem) int {
	for p != nil {
		if mf, ok := p.(MultiFidelity); ok {
			if k := mf.NumFidelities(); k >= 2 {
				return k
			}
			return 2
		}
		u, ok := p.(Unwrapper)
		if !ok {
			break
		}
		p = u.Unwrap()
	}
	return 2
}

// TargetFidelity is the full-accuracy rung of p: High on classic
// two-fidelity problems, Fidelity(NumFidelities(p)-1) on ladders. Every
// algorithm that simulates "at high fidelity", and every metric that counts
// only target-rung observations, asks this helper.
func TargetFidelity(p Problem) Fidelity { return Fidelity(NumFidelities(p) - 1) }

// EquivalentSims converts raw evaluation counts into the paper's metric:
// the number of high-fidelity simulations with the same total cost.
func EquivalentSims(p Problem, nLow, nHigh int) float64 {
	return (float64(nLow)*p.Cost(Low) + float64(nHigh)*p.Cost(High)) / p.Cost(High)
}

// CheckPoint validates that x is finite and matches the problem dimension;
// optimizer internals call it before spending a simulation.
func CheckPoint(p Problem, x []float64) error {
	if len(x) != p.Dim() {
		return fmt.Errorf("problem %s: point dim %d != %d", p.Name(), len(x), p.Dim())
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("problem %s: coordinate %d is %v", p.Name(), i, v)
		}
	}
	return nil
}

// Better reports whether candidate a improves on b under the standard
// constrained comparison: a feasible point beats any infeasible point;
// two feasible points compare by objective; two infeasible points compare
// by total violation.
func Better(a, b Evaluation) bool {
	af, bf := a.Feasible(), b.Feasible()
	switch {
	case af && !bf:
		return true
	case !af && bf:
		return false
	case af && bf:
		return a.Objective < b.Objective
	default:
		return a.Violation() < b.Violation()
	}
}
