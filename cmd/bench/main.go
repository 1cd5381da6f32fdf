// Command bench measures the library's four hot paths — GP hyperparameter
// training, MSP acquisition maximization, fused-posterior batch prediction and
// the blocked Cholesky factorization — and writes a machine-readable report to
// BENCH_hotpaths.json.
//
//	bench                     # full run, workers = NumCPU
//	bench -workers 8 -o out.json
//	bench -quick              # short benchtime for CI smoke runs
//
// Each parallelizable workload runs twice, serially and with -workers
// goroutines; the report records ns/op, B/op, allocs/op and the parallel
// speedup. Both variants perform bit-identical arithmetic (the determinism
// contract of internal/parallel), so the speedup column measures scheduling
// only — never a changed computation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/buildinfo"
)

type entry struct {
	Name            string  `json:"name"`
	Workers         int     `json:"workers,omitempty"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

type report struct {
	Generated string  `json:"generated"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Workers   int     `json:"workers"`
	Results   []entry `json:"results"`
}

// scalingEntry is one (strategy, history length) cell of the GP-scaling
// report: the per-Tell surrogate maintenance cost.
type scalingEntry struct {
	Name        string  `json:"name"`
	Mode        string  `json:"mode"`
	N           int     `json:"n"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// scalingSpeedup summarizes one history length: how much cheaper the rank-1
// and low-rank maintenance paths are than the frozen-hyper full refit. Ratios
// are hardware-portable, so they — not raw ns/op — are what the CI baseline
// comparison gates on.
type scalingSpeedup struct {
	N           int     `json:"n"`
	Incremental float64 `json:"incremental"`
	LowRank     float64 `json:"low_rank"`
}

type scalingReport struct {
	Generated string           `json:"generated"`
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Inducing  int              `json:"inducing"`
	Results   []scalingEntry   `json:"results"`
	Speedups  []scalingSpeedup `json:"speedups"`
}

func main() {
	log.SetFlags(0)
	testing.Init() // registers test.* flags so benchtime can be tuned below
	workers := flag.Int("workers", runtime.NumCPU(), "parallel worker count for the non-serial variants")
	out := flag.String("o", "BENCH_hotpaths.json", "output path for the JSON report")
	quick := flag.Bool("quick", false, "smoke mode: cap every benchmark at a handful of iterations")
	scaling := flag.Bool("scaling", false, "run the GP-scaling workloads (per-Tell cost vs history length) instead of the hot paths")
	baseline := flag.String("baseline", "", "with -scaling: compare speedups against this committed report and exit non-zero on a >25% regression")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("bench"))
		return
	}

	if *scaling {
		// Scaling workloads compare O(n³) against O(n²) per-op costs; a
		// fixed, larger iteration count keeps the ratios stable even in
		// quick mode (3 iterations would be noise-bound for the cheap ops).
		benchtime := "20x"
		if !*quick {
			benchtime = "1s"
		}
		if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime); err != nil {
			log.Fatal(err)
		}
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "o" {
				outSet = true
			}
		})
		if !outSet {
			*out = "BENCH_gp_scaling.json"
		}
		runScaling(*out, *baseline)
		return
	}
	if *quick {
		// testing.Benchmark honours the test.benchtime flag; a fixed
		// iteration count keeps CI smoke runs to a few seconds.
		if err := flag.CommandLine.Lookup("test.benchtime").Value.Set("3x"); err != nil {
			log.Fatal(err)
		}
	}

	measure := func(name string, w int, f func(*testing.B)) entry {
		r := testing.Benchmark(f)
		e := entry{
			Name:        name,
			Workers:     w,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Printf("%-28s workers=%-2d %12.0f ns/op %8d B/op %6d allocs/op\n",
			name, w, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
		return e
	}

	var results []entry
	pair := func(name string, mk func(int) func(*testing.B)) {
		serial := measure(name, 1, mk(1))
		results = append(results, serial)
		if *workers > 1 {
			par := measure(name, *workers, mk(*workers))
			if par.NsPerOp > 0 {
				par.SpeedupVsSerial = serial.NsPerOp / par.NsPerOp
			}
			results = append(results, par)
		}
	}
	pair("GPFit", bench.GPFit)
	pair("MSP", bench.MSP)
	pair("PredictBatch", bench.PredictBatch)
	results = append(results, measure("PredictSingle", 1, bench.PredictSingle()))
	results = append(results, measure("FusedPredict", 1, bench.FusedPredict()))
	results = append(results, measure("Cholesky160", 1, bench.Cholesky(160)))

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Workers:   *workers,
		Results:   results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// runScaling measures per-Tell surrogate maintenance cost vs history length
// for the three strategies (full refit / rank-1 incremental / low-rank),
// writes the report, and optionally gates against a committed baseline.
func runScaling(out, baselinePath string) {
	modes := []struct {
		mode string
		mk   func(int) func(*testing.B)
	}{
		{"FullRefit", bench.TellFullRefit},
		{"Incremental", bench.TellIncremental},
		{"LowRank", bench.TellLowRank},
		// Ladder is recorded for visibility but not baseline-gated: its cost is
		// dominated by the same rank-1 update as Incremental plus a chain
		// prediction, so the existing gates already cover its regressions.
		{"Ladder", bench.TellLadder},
	}
	rep := scalingReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Inducing:  bench.ScalingInducing,
	}
	perMode := map[string]map[int]float64{}
	for _, m := range modes {
		perMode[m.mode] = map[int]float64{}
		for _, n := range bench.ScalingSizes {
			r := testing.Benchmark(m.mk(n))
			e := scalingEntry{
				Name:        bench.ScalingName(m.mode, n),
				Mode:        m.mode,
				N:           n,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			fmt.Printf("%-24s %12.0f ns/op %10d B/op %6d allocs/op\n",
				e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
			rep.Results = append(rep.Results, e)
			perMode[m.mode][n] = e.NsPerOp
		}
	}
	for _, n := range bench.ScalingSizes {
		sp := scalingSpeedup{N: n}
		if full := perMode["FullRefit"][n]; full > 0 {
			if v := perMode["Incremental"][n]; v > 0 {
				sp.Incremental = full / v
			}
			if v := perMode["LowRank"][n]; v > 0 {
				sp.LowRank = full / v
			}
		}
		fmt.Printf("n=%-4d speedup: incremental %.1fx, low-rank %.1fx\n", n, sp.Incremental, sp.LowRank)
		rep.Speedups = append(rep.Speedups, sp)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
	if baselinePath != "" {
		if err := checkScalingBaseline(rep, baselinePath); err != nil {
			log.Fatalf("bench: %v", err)
		}
		fmt.Printf("baseline %s: ok (no speedup regression > 25%%)\n", baselinePath)
	}
}

// checkScalingBaseline fails when a mode's geometric-mean speedup across
// history lengths falls more than 25% below the committed baseline's.
// Speedup ratios — not raw ns/op — are the gated quantity, so the check is
// meaningful across different CI hardware; the geometric mean across n is
// the gated statistic because individual points are noisy (the fast paths
// sit at tens of µs per op, where scheduler jitter alone moves a single
// ratio past any reasonable per-point tolerance) while a real regression
// degrades every history length at once.
func checkScalingBaseline(rep scalingReport, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base scalingReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	baseByN := map[int]scalingSpeedup{}
	for _, sp := range base.Speedups {
		baseByN[sp.N] = sp
	}
	logSum := map[string]float64{}
	points := 0
	for _, sp := range rep.Speedups {
		b, ok := baseByN[sp.N]
		if !ok {
			continue
		}
		logSum["incremental"] += math.Log(sp.Incremental / b.Incremental)
		logSum["low-rank"] += math.Log(sp.LowRank / b.LowRank)
		points++
	}
	if points == 0 {
		return fmt.Errorf("baseline %s shares no history lengths with this run", path)
	}
	for _, mode := range []string{"incremental", "low-rank"} {
		if ratio := math.Exp(logSum[mode] / float64(points)); ratio < 0.75 {
			return fmt.Errorf("%s speedup regressed: geometric mean across n is %.0f%% of the baseline's (gate: 75%%)",
				mode, 100*ratio)
		}
	}
	return nil
}
