package telemetry

import (
	"fmt"
	"math"
	"strings"
)

// Summary aggregates an event log for reporting.
type Summary struct {
	Run        *RunEvent
	Iterations []*IterationEvent // adaptive iterations, in order
	InitLow    int               // initialization observations per fidelity
	InitHigh   int
	NumLow     int // adaptive evaluations per fidelity
	NumHigh    int
	NumFailed  int
	Degraded   int // iterations that took any degradation rung
	Bootstrap  int // iterations in §4.2 first-feasible mode
	Duplicates int // duplicate-argmax fallbacks
	FitSkipped int // proposals served from the cached surrogates (incremental mode)
	Rank1      int // rank-1 factor extensions applied across the run
	LowRank    int // iterations served by the low-rank inducing-point surrogate
}

// Summarize folds an event stream into a Summary.
func Summarize(events []Event) *Summary {
	s := &Summary{}
	for _, ev := range events {
		switch {
		case ev.Run != nil:
			s.Run = ev.Run
		case ev.Iteration != nil:
			it := ev.Iteration
			if it.Iter < 0 {
				if it.Fidelity == "high" {
					s.InitHigh++
				} else {
					s.InitLow++
				}
				if it.Failed {
					s.NumFailed++
				}
				continue
			}
			s.Iterations = append(s.Iterations, it)
			if it.Fidelity == "high" {
				s.NumHigh++
			} else {
				s.NumLow++
			}
			if it.Failed {
				s.NumFailed++
			}
			if it.Degrade != "" {
				s.Degraded++
			}
			if it.Bootstrap {
				s.Bootstrap++
			}
			if it.DuplicateFallback {
				s.Duplicates++
			}
			if it.FitSkipped {
				s.FitSkipped++
			}
			s.Rank1 += it.Rank1Updates
			if it.LowRank {
				s.LowRank++
			}
		}
	}
	return s
}

// Table renders the per-iteration convergence/fidelity-decision table the
// EXPERIMENTS.md-style reports use: one row per adaptive iteration with the
// σ²_l vs (1+Nc)·γ comparison, the wEI value at the argmax, the outcome and
// the running best.
func (s *Summary) Table() string {
	var b strings.Builder
	if s.Run != nil {
		fmt.Fprintf(&b, "run: problem=%s d=%d nc=%d budget=%g gamma=%g init=%d+%d\n",
			s.Run.Problem, s.Run.Dim, s.Run.NumConstraints, s.Run.Budget,
			s.Run.Gamma, s.Run.InitLow, s.Run.InitHigh)
	}
	fmt.Fprintf(&b, "%-5s %-4s %-11s %-11s %-11s %-11s %-11s %-8s %s\n",
		"iter", "fid", "sigma2_max", "threshold", "acq", "objective", "best", "cost", "notes")
	best := math.Inf(1)
	haveBest := false
	for _, it := range s.Iterations {
		sigma := "-"
		thr := "-"
		if it.HasSigma2 {
			sigma = fmt.Sprintf("%.4g", it.Sigma2Max)
			thr = fmt.Sprintf("%.4g", it.Threshold)
		}
		if it.Fidelity == "high" && !it.Failed && feasibleRow(it) {
			if !haveBest || it.Objective < best {
				best = it.Objective
				haveBest = true
			}
		}
		bestStr := "-"
		if haveBest {
			bestStr = fmt.Sprintf("%.6g", best)
		}
		var notes []string
		if it.Bootstrap {
			notes = append(notes, "bootstrap")
		}
		if it.Degrade != "" {
			notes = append(notes, "degrade:"+it.Degrade)
		}
		if it.DuplicateFallback {
			notes = append(notes, "dup-fallback")
		}
		if it.Failed {
			notes = append(notes, "FAILED")
		}
		if it.ForcedHigh {
			notes = append(notes, "forced-high")
		}
		if it.FitSkipped {
			notes = append(notes, fmt.Sprintf("fit-skip:%d", it.SinceRefit))
		}
		if it.LowRank {
			notes = append(notes, "low-rank")
		}
		fmt.Fprintf(&b, "%-5d %-4s %-11s %-11s %-11.4g %-11.6g %-11s %-8.2f %s\n",
			it.Iter, it.Fidelity, sigma, thr, it.AcqHigh, it.Objective,
			bestStr, it.CumCost, strings.Join(notes, ","))
	}
	fmt.Fprintf(&b, "totals: %d init (%d low + %d high), %d adaptive (%d low + %d high), %d failed, %d degraded, %d bootstrap, %d duplicate-fallbacks\n",
		s.InitLow+s.InitHigh, s.InitLow, s.InitHigh,
		len(s.Iterations), s.NumLow, s.NumHigh, s.NumFailed,
		s.Degraded, s.Bootstrap, s.Duplicates)
	if s.FitSkipped > 0 || s.Rank1 > 0 || s.LowRank > 0 {
		fmt.Fprintf(&b, "incremental: %d fit-skips, %d rank-1 updates, %d low-rank iterations\n",
			s.FitSkipped, s.Rank1, s.LowRank)
	}
	return b.String()
}

// feasibleRow reports whether the iteration's observation satisfies every
// constraint (g_i(x) >= 0 in this repo's convention).
func feasibleRow(it *IterationEvent) bool {
	for _, c := range it.Constraints {
		if c < 0 {
			return false
		}
	}
	return true
}
