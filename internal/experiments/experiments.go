// Package experiments is the harness that regenerates the paper's evaluation
// (§5): it runs each optimizer repeatedly with independent seeds, aggregates
// the per-run outcomes into the row structure of Tables 1 and 2, and renders
// ASCII tables matching the paper's layout. It also computes best-so-far
// convergence traces.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/stats"
)

// RunFn runs one optimization replication with the given RNG.
type RunFn func(rng *rand.Rand) (*core.Result, error)

// RunFnCtx runs one cancellable optimization replication with the given RNG.
type RunFnCtx func(ctx context.Context, rng *rand.Rand) (*core.Result, error)

// RunRepeated executes fn `runs` times with seeds baseSeed, baseSeed+1, …
// in parallel (bounded by GOMAXPROCS), returning results in seed order.
// Each replication gets its own rand.Rand, so results are independent of
// scheduling.
func RunRepeated(runs int, baseSeed int64, fn RunFn) ([]*core.Result, error) {
	return RunRepeatedCtx(context.Background(), runs, baseSeed,
		func(_ context.Context, rng *rand.Rand) (*core.Result, error) { return fn(rng) })
}

// RunRepeatedCtx is RunRepeated with cooperative cancellation: the context is
// passed to every replication, and once it is cancelled no new replication
// starts. Replications that were already running finish (optimizers built on
// core.OptimizeCtx return their partial result with Interrupted set).
func RunRepeatedCtx(ctx context.Context, runs int, baseSeed int64, fn RunFnCtx) ([]*core.Result, error) {
	results := make([]*core.Result, runs)
	errs := make([]error, runs)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			rng := rand.New(rand.NewSource(baseSeed + int64(i)))
			results[i], errs[i] = fn(ctx, rng)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: replication %d: %w", i, err)
		}
	}
	return results, nil
}

// AlgoStats aggregates the replications of one algorithm on one problem.
type AlgoStats struct {
	Name string
	// Problem is the problem every replication ran on; its target fidelity
	// (problem.TargetFidelity) selects the observations the cost metrics
	// count. nil stands for a classic two-fidelity problem.
	Problem problem.Problem
	Results []*core.Result
}

// Objectives returns each run's best objective (feasible runs only carry
// their feasible best; an infeasible run contributes +Inf).
func (a *AlgoStats) Objectives() []float64 {
	out := make([]float64, len(a.Results))
	for i, r := range a.Results {
		if r.Feasible {
			out[i] = r.Best.Objective
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// CompareSignificance runs the Wilcoxon rank-sum test between two
// algorithms' best-objective distributions across replications (infeasible
// runs enter as +Inf, i.e. worst rank) and returns the two-sided p-value.
func CompareSignificance(a, b *AlgoStats) float64 {
	_, p := stats.RankSum(a.Objectives(), b.Objectives())
	return p
}

// Successes counts the replications that found a feasible design.
func (a *AlgoStats) Successes() int {
	n := 0
	for _, r := range a.Results {
		if r.Feasible {
			n++
		}
	}
	return n
}

// AvgSims returns the paper's "Avg. # Sim" metric: the mean over
// replications of the equivalent-simulation cost at which each run's final
// best design was found (not the total budget spent).
func (a *AlgoStats) AvgSims() float64 {
	s := 0.0
	for _, r := range a.Results {
		s += SimsToBest(a.Problem, r)
	}
	return s / float64(len(a.Results))
}

// AvgTotalSims returns the mean total equivalent simulations spent.
func (a *AlgoStats) AvgTotalSims() float64 {
	s := 0.0
	for _, r := range a.Results {
		s += r.EquivalentSims
	}
	return s / float64(len(a.Results))
}

// SimsToBest returns the cumulative equivalent-simulation cost at the last
// improvement of the best (feasible-first) target-fidelity observation in the
// history of run r on p — the point where the reported result was reached.
func SimsToBest(p problem.Problem, r *core.Result) float64 {
	bestCost := r.EquivalentSims
	target := problem.TargetFidelity(p)
	var best problem.Evaluation
	first := true
	for _, ob := range r.History {
		if ob.Fid != target {
			continue
		}
		if first || problem.Better(ob.Eval, best) {
			best = ob.Eval
			bestCost = ob.CumCost
			first = false
		}
	}
	return bestCost
}

// BestRun returns the replication with the best (feasible-first) outcome.
func (a *AlgoStats) BestRun() *core.Result {
	best := a.Results[0]
	for _, r := range a.Results[1:] {
		if problem.Better(bestEvalOf(r), bestEvalOf(best)) {
			best = r
		}
	}
	return best
}

func bestEvalOf(r *core.Result) problem.Evaluation {
	e := r.Best
	if !r.Feasible {
		// Mark infeasible results so Better() ranks them below feasible.
		return problem.Evaluation{Objective: e.Objective, Constraints: []float64{1}}
	}
	if len(e.Constraints) == 0 {
		return problem.Evaluation{Objective: e.Objective, Constraints: []float64{-1}}
	}
	return e
}

// ObjectiveSummary summarizes feasible-run objectives (mean/median/best/
// worst). Infeasible runs are excluded; ok reports whether any run was
// feasible.
func (a *AlgoStats) ObjectiveSummary() (s stats.Summary, ok bool) {
	var feas []float64
	for _, r := range a.Results {
		if r.Feasible {
			feas = append(feas, r.Best.Objective)
		}
	}
	if len(feas) == 0 {
		return stats.Summary{}, false
	}
	return stats.Summarize(feas), true
}

// Table is an ASCII table in the paper's layout: one column per algorithm.
type Table struct {
	Title string
	Algos []string
	rows  []tableRow
}

type tableRow struct {
	label  string
	values []string
}

// NewTable creates a table with the given title and algorithm columns.
func NewTable(title string, algos ...string) *Table {
	return &Table{Title: title, Algos: algos}
}

// AddRow appends a row of formatted values (one per algorithm).
func (t *Table) AddRow(label string, format string, values ...float64) {
	row := tableRow{label: label}
	for _, v := range values {
		switch {
		case math.IsInf(v, 1):
			row.values = append(row.values, "—")
		case math.IsNaN(v):
			row.values = append(row.values, "n/a")
		default:
			row.values = append(row.values, fmt.Sprintf(format, v))
		}
	}
	t.rows = append(t.rows, row)
}

// AddTextRow appends a row of preformatted strings.
func (t *Table) AddTextRow(label string, values ...string) {
	t.rows = append(t.rows, tableRow{label: label, values: values})
}

// Render lays the table out with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, 1+len(t.Algos))
	widths[0] = len("Algo")
	for _, r := range t.rows {
		if len(r.label) > widths[0] {
			widths[0] = len(r.label)
		}
	}
	for j, a := range t.Algos {
		widths[1+j] = len(a)
		for _, r := range t.rows {
			if j < len(r.values) && len(r.values[j]) > widths[1+j] {
				widths[1+j] = len(r.values[j])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for j, c := range cells {
			if j == 0 {
				fmt.Fprintf(&b, "%-*s", widths[0], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[j], c)
			}
		}
		b.WriteByte('\n')
	}
	header := append([]string{"Algo"}, t.Algos...)
	writeRow(header)
	total := widths[0]
	for _, w := range widths[1:] {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(append([]string{r.label}, r.values...))
	}
	return b.String()
}

// ConvergenceTrace returns the best-feasible-so-far objective as a function
// of cumulative equivalent simulations for one run on p, sampled at every
// target-fidelity evaluation. Points before the first feasible observation
// carry +Inf.
func ConvergenceTrace(p problem.Problem, r *core.Result) (cost, best []float64) {
	cur := math.Inf(1)
	target := problem.TargetFidelity(p)
	for _, ob := range r.History {
		if ob.Fid != target {
			continue
		}
		if ob.Eval.Feasible() && ob.Eval.Objective < cur {
			cur = ob.Eval.Objective
		}
		cost = append(cost, ob.CumCost)
		best = append(best, cur)
	}
	return cost, best
}

// MedianTraceAt samples each replication's convergence trace at the given
// cost grid (step-function interpolation) and returns the per-grid-point
// median.
func (a *AlgoStats) MedianTraceAt(grid []float64) []float64 {
	vals := make([][]float64, len(grid))
	for i := range vals {
		vals[i] = make([]float64, 0, len(a.Results))
	}
	for _, r := range a.Results {
		cost, best := ConvergenceTrace(a.Problem, r)
		for i, g := range grid {
			// Step interpolation: last trace point with cost ≤ g.
			v := math.Inf(1)
			for k := range cost {
				if cost[k] <= g {
					v = best[k]
				} else {
					break
				}
			}
			vals[i] = append(vals[i], v)
		}
	}
	out := make([]float64, len(grid))
	for i, vs := range vals {
		sort.Float64s(vs)
		out[i] = stats.Quantile(vs, 0.5)
	}
	return out
}
