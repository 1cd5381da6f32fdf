package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/stats"
)

// CompareSignificance runs the Wilcoxon rank-sum test between two
// algorithms' best-objective distributions across replications (infeasible
// runs enter as +Inf, i.e. worst rank) and returns the two-sided p-value.
func CompareSignificance(a, b *AlgoStats) float64 {
	_, p := stats.RankSum(a.Objectives(), b.Objectives())
	return p
}

// WriteHistoryCSV dumps one run's simulation history: iteration, fidelity,
// cumulative equivalent sims, objective, feasibility, and the design vector.
func WriteHistoryCSV(w io.Writer, r *core.Result) error {
	cw := csv.NewWriter(w)
	dim := 0
	if len(r.History) > 0 {
		dim = len(r.History[0].X)
	}
	header := []string{"iter", "fidelity", "cum_equiv_sims", "objective", "feasible"}
	for j := 0; j < dim; j++ {
		header = append(header, fmt.Sprintf("x%d", j))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, ob := range r.History {
		row := []string{
			strconv.Itoa(ob.Iter),
			ob.Fid.String(),
			strconv.FormatFloat(ob.CumCost, 'g', 10, 64),
			strconv.FormatFloat(ob.Eval.Objective, 'g', 10, 64),
			strconv.FormatBool(ob.Eval.Feasible()),
		}
		for _, v := range ob.X {
			row = append(row, strconv.FormatFloat(v, 'g', 10, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTraceCSV dumps per-algorithm median convergence traces over the given
// cost grid: one row per grid point, one column per algorithm.
func WriteTraceCSV(w io.Writer, statsByAlgo map[string]*AlgoStats, grid []float64) error {
	cw := csv.NewWriter(w)
	header := append([]string{"equiv_sims"}, AlgoOrder...)
	if err := cw.Write(header); err != nil {
		return err
	}
	medians := make(map[string][]float64, len(AlgoOrder))
	for _, name := range AlgoOrder {
		a, ok := statsByAlgo[name]
		if !ok {
			continue
		}
		medians[name] = a.MedianTraceAt(grid)
	}
	for i, g := range grid {
		row := []string{strconv.FormatFloat(g, 'g', 10, 64)}
		for _, name := range AlgoOrder {
			m, ok := medians[name]
			if !ok {
				row = append(row, "")
				continue
			}
			row = append(row, strconv.FormatFloat(m[i], 'g', 10, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
