// Command mfbo runs one optimizer on one built-in problem and reports the
// outcome — the interactive entry point to the library.
//
//	mfbo -problem poweramp -algo mfbo -budget 50
//	mfbo -problem chargepump -algo weibo -budget 60 -seed 7
//	mfbo -problem constrained -algo de -budget 200 -v
//	mfbo -problem poweramp -robust -eval-timeout 30s -checkpoint run.ckpt.json
//	mfbo -problem forrester -chaos 0.2 -robust -v
//
// Problems: poweramp, chargepump, pedagogical, forrester, branin, currin,
// park, borehole, hartmann3, constrained, plus the three-rung ladder variants
// forrester3, poweramp3 and chargepump3 (`mfbo -list` prints each problem's
// rung count and per-rung costs). Algorithms: mfbo (ours), weibo, gaspad, de.
//
// Robustness (mfbo algorithm only): -robust wraps the problem in the safe
// evaluation runtime (panic recovery, NaN sanitization, retries, timeouts);
// -checkpoint P snapshots the run after every observation into the storage
// fs backend (generations <dir of P>/<id>.ckpt.g*.mfbo, where id is P's base
// name without ".ckpt.json") and -resume restarts from the newest intact one;
// -chaos injects synthetic low-fidelity failures for fault-tolerance demos.
// Ctrl-C interrupts gracefully, leaving a resumable checkpoint behind when
// -checkpoint is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/buildinfo"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fidelity"
	"repro/internal/optimize"
	"repro/internal/robust"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	probName := flag.String("problem", "forrester", "problem name")
	algo := flag.String("algo", "mfbo", "algorithm: mfbo | weibo | gaspad | de")
	budget := flag.Float64("budget", 30, "simulation budget in equivalent high-fidelity sims")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print every simulation")
	initLow := flag.Int("init-low", 0, "low-fidelity initialization size (mfbo; 0 = default)")
	initHigh := flag.Int("init-high", 0, "high-fidelity initialization size (mfbo; 0 = default)")
	gamma := flag.Float64("gamma", 0.01, "fidelity-selection threshold γ (mfbo)")
	initMid := flag.Int("init-mid", 0, "initialization size per intermediate rung of a K>2 ladder (mfbo; 0 = default)")
	rungCosts := flag.String("fidelity-rungs", "", "comma-separated per-rung relative costs γ_0,…,γ_{K-1} overriding the problem's ladder (last must be 1; count must match the problem's rung count, or be 1 to optimize the target fidelity alone)")
	list := flag.Bool("list", false, "list the built-in problems with their fidelity ladders and exit")
	useRobust := flag.Bool("robust", false, "wrap the problem in the safe evaluation runtime")
	retries := flag.Int("retries", 2, "max retries per evaluation (with -robust)")
	evalTimeout := flag.Duration("eval-timeout", 0, "per-evaluation timeout, 0 = none (with -robust)")
	ckptPath := flag.String("checkpoint", "", "persist a resumable snapshot for this path after every observation, as generations <dir>/<name>.ckpt.g*.mfbo (mfbo)")
	resume := flag.Bool("resume", false, "resume the mfbo run from the -checkpoint file")
	chaosRate := flag.Float64("chaos", 0, "inject this low-fidelity failure rate (plus panics at a quarter of it); implies a fault-tolerance demo")
	procs := flag.Int("procs", 0, "worker goroutines for surrogate training and acquisition maximization (0 = all CPUs, 1 = serial; the result is bit-identical for every setting)")
	incremental := flag.Bool("incremental", false, "maintain surrogates with O(n²) rank-1 Cholesky updates between full refits (mfbo)")
	refitEvery := flag.Int("refit-every", 0, "full hyperparameter refit cadence in proposals (0 = every proposal; with -incremental, fits in between are rank-1 extensions)")
	nlmlTrigger := flag.Float64("nlml-trigger", 0, "per-point NLML degradation in nats forcing an early full refit with -incremental (0 = default 0.5, negative disables)")
	lowRankAfter := flag.Int("low-rank-after", 0, "switch surrogates beyond this many training points to the inducing-point low-rank approximation (0 = exact GPs)")
	telemetryPath := flag.String("telemetry", "", "write the structured per-iteration event log (JSONL) here (mfbo algorithm; render with mfbo-trace)")
	traceSample := flag.Int("trace-sample", 1, "with -telemetry: emit every n-th root trace span (1 = all)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mfbo"))
		return
	}
	if *list {
		infos, err := catalog.Infos()
		if err != nil {
			log.Fatalf("mfbo: %v", err)
		}
		fmt.Printf("%-12s %-22s %3s %4s %5s  %s\n", "NAME", "PROBLEM", "DIM", "CONS", "RUNGS", "RUNG COSTS")
		for _, in := range infos {
			fmt.Printf("%-12s %-22s %3d %4d %5d  %s\n",
				in.Name, in.ProblemName, in.Dim, in.Constraints, in.Rungs, fmtSlice(in.RungCosts))
		}
		return
	}

	p, err := catalog.Lookup(*probName)
	if err != nil {
		log.Fatalf("mfbo: %v", err)
	}

	// Telemetry: a JSONL event sink (the on-disk log mfbo-trace renders)
	// plus an in-memory ring for the end-of-run convergence table. Enabling
	// it never changes the optimization trajectory.
	var rec *telemetry.Recorder
	var evlog *telemetry.JSONL
	var evring *telemetry.Ring
	if *telemetryPath != "" {
		evlog, err = telemetry.OpenJSONL(*telemetryPath)
		if err != nil {
			log.Fatalf("mfbo: %v", err)
		}
		evring = telemetry.NewRing(4096)
		rec = telemetry.NewRecorder(telemetry.Multi(evlog, evring), *traceSample)
	}

	if *chaosRate > 0 {
		p = robust.NewChaos(p, robust.ChaosConfig{
			Low:  robust.FidelityChaos{FailRate: *chaosRate, PanicRate: *chaosRate / 4},
			Seed: *seed,
		})
	}
	if *useRobust || *chaosRate > 0 {
		p = robust.Wrap(p, robust.Policy{
			MaxRetries: *retries,
			Timeout:    *evalTimeout,
			Seed:       *seed,
			Telemetry:  rec,
		})
	}
	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cb func(core.Observation)
	if *verbose {
		cb = func(ob core.Observation) {
			fmt.Printf("  [%6.2f sims] %-4s obj=%.4f feasible=%v\n",
				ob.CumCost, ob.Fid, ob.Eval.Objective, ob.Eval.Feasible())
		}
	}

	var res *core.Result
	msp := optimize.MSPConfig{Starts: 10, LocalIter: 30}
	switch *algo {
	case "mfbo":
		cfg := core.Config{
			Budget: *budget, InitLow: *initLow, InitHigh: *initHigh,
			Gamma: *gamma, InitMid: *initMid, MSP: msp, Callback: cb, Workers: *procs,
			Telemetry:  rec,
			RefitEvery: *refitEvery, Incremental: *incremental,
			NLMLTrigger: *nlmlTrigger, LowRankAfter: *lowRankAfter,
		}
		if *rungCosts != "" {
			costs, err := parseCosts(*rungCosts)
			if err != nil {
				log.Fatalf("mfbo: -fidelity-rungs: %v", err)
			}
			ladder, err := fidelity.FromCosts(costs)
			if err != nil {
				log.Fatalf("mfbo: -fidelity-rungs: %v", err)
			}
			cfg.Ladder = &ladder
		}
		var store storage.Store
		var id string
		if *ckptPath != "" {
			store, id, err = checkpointStore(*ckptPath)
			if err != nil {
				log.Fatalf("mfbo: %v", err)
			}
			cfg.Checkpointer = core.StoreCheckpointer(store, id)
		}
		if *resume {
			if *ckptPath == "" {
				log.Fatal("mfbo: -resume requires -checkpoint")
			}
			var ck *core.Checkpoint
			ck, err = core.LoadCheckpointFromStore(store, id)
			if err != nil {
				log.Fatalf("mfbo: %v", err)
			}
			res, err = core.Resume(ctx, p, cfg, rng, ck)
		} else {
			res, err = core.OptimizeCtx(ctx, p, cfg, rng)
		}
	case "weibo":
		res, err = baselines.WEIBO(p, core.Config{
			Budget: float64(int(*budget)), InitHigh: max(4, int(*budget)/4), MSP: msp, Callback: cb,
			Workers: *procs,
		}, rng)
	case "gaspad":
		res, err = baselines.GASPAD(p, baselines.GASPADConfig{
			Budget: int(*budget), Init: max(4, int(*budget)/4), Callback: cb,
			Workers: *procs,
		}, rng)
	case "de":
		res, err = baselines.DE(p, baselines.DEConfig{Budget: int(*budget), Callback: cb}, rng)
	default:
		log.Fatalf("mfbo: unknown algorithm %q", *algo)
	}
	if err != nil {
		log.Fatalf("mfbo: %v", err)
	}

	fmt.Printf("problem:   %s (d=%d, %d constraints)\n", p.Name(), p.Dim(), p.NumConstraints())
	fmt.Printf("algorithm: %s, seed %d\n", *algo, *seed)
	fmt.Printf("result:    objective %.6f, feasible %v\n", res.Best.Objective, res.Feasible)
	if len(res.Best.Constraints) > 0 {
		fmt.Printf("constraints: %v\n", fmtSlice(res.Best.Constraints))
	}
	fmt.Printf("best x:    %v\n", fmtSlice(res.BestX))
	if len(res.NumByRung) > 0 {
		fmt.Printf("cost:      %v sims per rung = %.1f equivalent (found best at %.1f)\n",
			res.NumByRung, res.EquivalentSims, experiments.SimsToBest(p, res))
	} else {
		fmt.Printf("cost:      %d low + %d high sims = %.1f equivalent (found best at %.1f)\n",
			res.NumLow, res.NumHigh, res.EquivalentSims, experiments.SimsToBest(p, res))
	}
	fmt.Printf("elapsed:   %s\n", time.Since(start).Round(time.Millisecond))
	if res.Interrupted {
		fmt.Println("status:    interrupted (partial result)")
		if *ckptPath != "" {
			fmt.Printf("           resume with: -resume -checkpoint %s\n", *ckptPath)
		}
	}
	if res.NumFailed > 0 {
		fmt.Printf("failures:  %d evaluations failed (charged against the budget)\n", res.NumFailed)
	}
	for fid, fc := range res.Faults {
		if fc.Attempts == 0 {
			continue
		}
		fmt.Printf("faults[%s]: %d attempts, %d retries, %d failures (%d panics, %d timeouts, %d non-finite)\n",
			fid, fc.Attempts, fc.Retries, fc.Failures, fc.Panics, fc.Timeouts, fc.NonFinite)
	}
	for _, d := range res.Degradations {
		fmt.Printf("degraded:  iter %d output %d → %s (%s)\n", d.Iter, d.Output, d.Stage, d.Reason)
	}
	if rec != nil {
		sum := telemetry.Summarize(evring.Snapshot())
		fmt.Println()
		fmt.Print(sum.Table())
		if err := evlog.Close(); err != nil {
			log.Printf("mfbo: telemetry log: %v", err)
		} else {
			fmt.Printf("telemetry: event log written to %s (render with mfbo-trace)\n", *telemetryPath)
		}
	}
}

// checkpointStore maps -checkpoint path onto the storage fs backend: the
// records live in path's directory under the ID path's base name minus
// ".ckpt.json", so a flat snapshot file written at path by earlier releases
// still resumes through the backend's legacy reader.
func checkpointStore(path string) (storage.Store, string, error) {
	fs, err := storage.NewFS(storage.FSConfig{Dir: filepath.Dir(path)})
	return fs, strings.TrimSuffix(filepath.Base(path), ".ckpt.json"), err
}

func parseCosts(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		c, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad cost %q", tok)
		}
		out = append(out, c)
	}
	return out, nil
}

func fmtSlice(v []float64) string {
	out := "["
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4g", x)
	}
	return out + "]"
}
