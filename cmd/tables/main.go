// Command tables regenerates the paper's evaluation tables:
//
//	tables -table 1 -scale quick    power amplifier (Table 1)
//	tables -table 2 -scale quick    charge pump (Table 2)
//
// Scales: "quick" (minutes, shape-preserving), "medium" (intermediate),
// "paper" (the §5 budgets — hours on a laptop). Results plus per-algorithm
// convergence summaries go to stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/testbench"
	"repro/internal/testfunc"
)

func main() {
	log.SetFlags(0)
	table := flag.Int("table", 1, "table to regenerate (1 = power amplifier, 2 = charge pump, 4 = fidelity ladder vs two-fidelity)")
	scale := flag.String("scale", "quick", "experiment scale: quick | medium | paper")
	seed := flag.Int64("seed", 42, "base random seed (replication i uses seed+i)")
	trace := flag.Bool("trace", false, "also print per-algorithm median convergence traces")
	flag.Parse()

	start := time.Now()
	var tab *experiments.Table
	var stats map[string]*experiments.AlgoStats
	var err error
	switch *table {
	case 1:
		sc := pickScale(*scale, experiments.QuickScalePA(), mediumScalePA(), experiments.PaperScalePA())
		tab, stats, err = experiments.RunTable1(testbench.NewPowerAmp(), sc, *seed)
	case 2:
		sc := pickScale(*scale, experiments.QuickScaleCP(), mediumScaleCP(), experiments.PaperScaleCP())
		tab, stats, err = experiments.RunTable2(testbench.NewChargePump(), sc, *seed)
	case 4:
		// Extension: 3-rung fidelity ladder vs the same engine restricted to
		// the bottom and top rungs (not in the paper).
		sc := experiments.QuickScaleLadder()
		if *scale == "medium" || *scale == "paper" {
			sc.Runs = 8
			sc.Budget = 40
		}
		tab, stats, err = experiments.RunLadderComparison(testfunc.Forrester3(), sc, *seed)
	default:
		log.Fatalf("tables: unknown table %d (want 1, 2 or 4)", *table)
	}
	if err != nil {
		log.Fatalf("tables: %v", err)
	}
	fmt.Println(tab.Render())
	fmt.Printf("(scale=%s seed=%d elapsed=%s)\n", *scale, *seed, time.Since(start).Round(time.Second))

	// Headline metric: simulation-time reduction of ours vs WEIBO.
	ours, weibo := stats["Ours"], stats["WEIBO"]
	if ours != nil && weibo != nil && weibo.AvgSims() > 0 {
		red := 100 * (1 - ours.AvgSims()/weibo.AvgSims())
		fmt.Printf("Simulation-time reduction vs WEIBO: %.1f%% (ours %.0f vs WEIBO %.0f equivalent sims)\n",
			red, ours.AvgSims(), weibo.AvgSims())
		fmt.Printf("Wilcoxon rank-sum p (Ours vs WEIBO objectives): %.3f\n",
			experiments.CompareSignificance(ours, weibo))
	}
	if *trace {
		printTraces(stats)
	}
}

func pickScale(name string, quick, medium, paper experiments.Scale) experiments.Scale {
	switch name {
	case "quick":
		return quick
	case "medium":
		return medium
	case "paper":
		return paper
	default:
		log.Fatalf("tables: unknown scale %q (want quick | medium | paper)", name)
		return experiments.Scale{}
	}
}

// mediumScalePA sits between quick and paper: the paper's init sizes and
// budget ratios at roughly 40 % of the simulation counts, 6 replications.
func mediumScalePA() experiments.Scale {
	sc := experiments.PaperScalePA()
	sc.Runs = 6
	sc.MFBOBudget = 60
	sc.WEIBOBudget = 60
	sc.WEIBOInit = 20
	sc.GASPADBudget = 120
	sc.GASPADInit = 20
	sc.DEBudget = 120
	sc.MSPStarts = 10
	sc.RefitEvery = 3
	return sc
}

// mediumScaleCP shrinks the charge-pump budgets so the 36-dimensional GP
// stack stays tractable on one core.
func mediumScaleCP() experiments.Scale {
	sc := experiments.PaperScaleCP()
	sc.Runs = 4
	sc.MFBOBudget = 60
	sc.MFBOInitLow = 30
	sc.MFBOInitHigh = 10
	sc.WEIBOBudget = 120
	sc.WEIBOInit = 40
	sc.GASPADBudget = 240
	sc.GASPADInit = 40
	sc.DEBudget = 2000
	sc.MSPStarts = 10
	sc.LocalIter = 20
	sc.MaxLowData = 150
	sc.MaxIterations = 600
	return sc
}

func printTraces(stats map[string]*experiments.AlgoStats) {
	grid := []float64{5, 10, 20, 40, 80, 160, 320}
	fmt.Println("\nMedian best-feasible objective vs equivalent sims:")
	fmt.Print("sims")
	for _, n := range experiments.AlgoOrder {
		fmt.Printf("\t%s", n)
	}
	fmt.Println()
	for _, g := range grid {
		fmt.Printf("%.0f", g)
		for _, n := range experiments.AlgoOrder {
			med := stats[n].MedianTraceAt([]float64{g})
			fmt.Printf("\t%.3f", med[0])
		}
		fmt.Println()
	}
}
