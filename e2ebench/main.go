// Command e2ebench is the end-to-end and per-layer benchmark of the
// multi-fidelity Bayesian optimizer and the service built around it. It
// measures a session at three depths: the in-process engine, one HTTP
// replica, and a gateway in front of sharded replicas and a worker fleet.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ledger <file>]
//	bash e2ebench/run.sh --workload all --seed 1     # every workload, both passes
//
// With --trace 0 a run makes one untraced pass and reports the end-to-end
// metrics. With --trace 1 it makes an untraced pass and a traced pass of
// half the time each and reports the per-layer metrics: the program's own
// spans (engine.ask, gp.fit, optimize.msp, storage.put, server.<route>,
// gateway.<route>, worker.evaluate) go to an in-memory sink, join a
// benchmark-side root span per call, and are assembled with
// telemetry.AssembleTraces and telemetry.AggregateStages. The untraced pass
// of the same run gives the tracing overhead. The last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics; --ledger also appends the full record (run metadata, raw times,
// sample counts, stage table) to a JSON-lines file.
//
// Every layer is timed from outside, through its public API: direct timers
// around core.Engine Ask/Tell, a timing http.RoundTripper under the client
// and the gateway, a timing storage.Store over storage.NewMem, a timing
// problem.Problem given to the evaluators, and snapshots of the
// mfbo_dispatch_* and mfbo_gateway_* counters.
//
// # Times at reference speed
//
// The benchmark samples the host's CPU speed every 20 ms with a fixed
// kernel of its own and reports each time scaled to a reference speed:
// on a shared host whose speed drifts by up to 1.7×, raw times of
// identical work spread by 20–40% between runs, scaled ones by a few
// percent (see speed.go). Raw times are printed beside the scaled ones.
//
// # Workloads
//
// All three are closed loops: each caller waits for every reply. Load comes
// from this one process.
//
//   - engine-poweramp: in-process core.Engine Ask/Tell on the paper's Table 1
//     power amplifier, no HTTP, each observation checkpointed to an
//     in-memory store as mfbo -checkpoint does: sessions with seeds 1, 2, 3
//     (budget 30, init 10/5, MSP 8×30, exact fits, Workers=2), then the same
//     sessions again until the time is up; each step's latency is the median
//     of its repeats. The surrogate (gp, mfgp, optimize) does nearly all the
//     work. Its trajectories are fixed and deterministic, so it carries the
//     paper's cost-to-target metric; --seed does not change it.
//   - replica-churn: one server.Server behind httptest, two clients driving
//     short forrester sessions (init 8/4 and budget 4.9, so one adaptive
//     proposal; MSP 2×10, GP 20, Workers=1): create, suggest/observe,
//     history audit, delete. HTTP/JSON, session create/delete and the
//     checkpoint written on every ack do most of the work; deleting keeps
//     the working set stationary. Session seeds come from --seed.
//   - fleet-ladder: a gateway in front of two sharded replicas (ra, rb) over
//     one shared store, serving sequential three-rung forrester3 sessions
//     (batch 2, init 4/2/2, budget 20, incremental fits refitting every 3rd
//     proposal), each through its own worker.Worker. It uses what the other
//     two skip: gateway proxying, dispatch leases, worker polling, the K>2
//     ladder, fantasies and rank-1 surrogate updates. One worker per session
//     keeps the sessions deterministic (see fleetSpec). The first 24
//     sessions, seeds 1 to 24, always run and carry cost to target; later
//     seeds come from --seed.
//
// The store is storage.NewMem: the same record framing and generation
// retention as the file-system backend without device I/O, whose fsync
// latency varies too much between runs on a small shared host to hold a
// bound, and which would have to write outside the benchmark's checkout.
//
// # Correctness gates
//
// A run exits non-zero, with "correct": false, when any operation failed;
// when acknowledged observations are missing from a session's final
// history (replica-churn, fleet-ladder); when a sampled replica-churn
// session differs from core.Optimize under the same seed, or a sampled
// fleet-ladder session from an in-process AskBatch/TellByID replay; when the
// engine-poweramp trajectory with Workers=1 differs from the one with
// Workers=2; when tracing changes a deterministic trajectory; or when a
// traced pass dropped spans or assembled fewer than 95% of its traces
// complete.
//
// Run with -h for the metric tables, including the end-to-end metric each
// per-layer metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// setupRepeats is how many times a pass boots its stack; setup_s is the
// median and the last stack is the one measured.
const setupRepeats = 21

type workloadDef struct {
	name, why string
	run       func(seed int64, d time.Duration, traced bool) (*pass, error)
}

var workloads = []workloadDef{
	{"engine-poweramp", "in-process engine on the paper's circuit: surrogate fits and acquisition dominate; carries cost to target", enginePoweramp.run},
	{"replica-churn", "one HTTP replica, short sessions created and deleted: HTTP, JSON and checkpoint writes dominate", replicaChurn.run},
	{"fleet-ladder", "gateway, sharded replicas and a worker per 3-rung batch session: proxying, leases, fantasies and rank-1 fits", fleetLadder.run},
}

func main() {
	os.Exit(run(os.Args[1:], workloads, os.Stdout, os.Stderr))
}

// run parses args, runs the named workloads of table and returns the exit
// code.
func run(args []string, table []workloadDef, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: untraced and traced passes, per-layer metrics")
	ledger := fs.String("ledger", "", "append each run's full record to this JSON-lines file")
	fs.Usage = func() { usage(stderr, fs, table) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	type job struct {
		w      workloadDef
		traced bool
	}
	var jobs []job
	for _, w := range table {
		switch {
		case *name == "all":
			jobs = append(jobs, job{w, false}, job{w, true})
		case *name == w.name:
			jobs = append(jobs, job{w, *trace == 1})
		}
	}
	if len(jobs) == 0 {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}

	d := time.Duration(*seconds * float64(time.Second))
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, j := range jobs {
		rec, err := measure(j.w, *seed, d, j.traced)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", j.w.name, err)
			return 1
		}
		rec.print(stdout)
		if *ledger != "" {
			if err := appendLedger(*ledger, rec); err != nil {
				fmt.Fprintf(stderr, "e2ebench: ledger: %v\n", err)
				return 1
			}
		}
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(jobs) > 1 {
				k = rec.Workload + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured, as appended to the ledger.
type record struct {
	Meta      runMeta `json:"meta"`
	Workload  string  `json:"workload"`
	Trace     int     `json:"trace"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics holds the reported metrics, times at reference speed; Speed
	// the host's mean speed over the measured pass (see speedProbe), which
	// divides them back into wall-clock times; Samples the number of values
	// behind each quantile or mean.
	Metrics     map[string]metricValue `json:"metrics"`
	Speed       float64                `json:"host_speed"`
	Samples     map[string]int         `json:"samples"`
	Fingerprint string                 `json:"fingerprint,omitempty"`
	Violations  []string               `json:"violations,omitempty"`
	Stages      []stageRow             `json:"stages,omitempty"`
}

// measure runs one workload in one mode and checks its gates.
func measure(w workloadDef, seed int64, d time.Duration, traced bool) (*record, error) {
	rec := &record{Workload: w.name, Seed: seed, Seconds: d.Seconds()}
	var values map[string]float64
	var defs []metricDef
	var passes []*pass
	if !traced {
		p, err := w.run(seed, d, false)
		if err != nil {
			return nil, err
		}
		passes = []*pass{p}
		values, defs = endToEnd(p), endToEndDefs
		rec.Speed = p.speed
		rec.Samples = map[string]int{
			"setup_s":                 p.setup.Count(),
			"suggest_p50_ms":          p.suggest.Count(),
			"suggest_p90_ms":          p.suggest.Count(),
			"observe_p50_ms":          p.observe.Count(),
			"observe_p90_ms":          p.observe.Count(),
			"suggestions_per_s":       p.suggestions,
			"alloc_mb_per_suggestion": p.suggestions,
			"equiv_sims_to_target":    len(p.toTarget),
		}
		rec.Fingerprint = p.fingerprint
	} else {
		rec.Trace = 1
		u, err := w.run(seed, d/2, false)
		if err != nil {
			return nil, err
		}
		t, err := w.run(seed, d/2, true)
		if err != nil {
			return nil, err
		}
		passes = []*pass{u, t}
		values, defs = perLayer(u, t), perLayerDefs
		rec.Speed = t.speed
		rec.Samples = map[string]int{
			"core.ask_ms_p50":               t.trace.askMillis.Count(),
			"core.tell_ms_p50":              t.trace.tellMillis.Count(),
			"eval.high_sim_ms_p50":          t.evals.top.Count(),
			"telemetry.complete_traces_pct": t.trace.traces,
		}
		if t.store != nil {
			rec.Samples["storage.put_ms_p50"] = t.store.putMillis.Count()
			rec.Samples["storage.put_ms_p99"] = t.store.putMillis.Count()
		}
		rec.Stages = t.trace.stageTable()
		rec.Fingerprint = t.fingerprint
		if u.fingerprint != t.fingerprint {
			rec.Violations = append(rec.Violations, fmt.Sprintf("tracing changed the trajectory: fingerprint %s untraced, %s traced", u.fingerprint, t.fingerprint))
		}
		if t.spans.dropped > 0 {
			rec.Violations = append(rec.Violations, fmt.Sprintf("%d spans dropped", t.spans.dropped))
		}
		if pct := values["telemetry.complete_traces_pct"]; pct < 95 {
			rec.Violations = append(rec.Violations, fmt.Sprintf("only %.1f%% of %d traces assembled complete", pct, t.trace.traces))
		}
	}
	for _, p := range passes {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Violations = append(rec.Violations, p.violations...)
	}
	if rec.Failed > 0 {
		rec.Violations = append(rec.Violations, fmt.Sprintf("%d of %d operations failed", rec.Failed, rec.Attempted))
	}
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Violations = append(rec.Violations, fmt.Sprintf("metric %s has no value", def.Name))
			v = 0
		}
		rec.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	rec.Correct = len(rec.Violations) == 0
	return rec, nil
}

// print writes the human-readable form of a record.
func (r *record) print(w io.Writer) {
	mode := "untraced: end-to-end metrics"
	if r.Trace == 1 {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s)\n", r.Workload, r.Seed, r.Seconds, mode)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "host speed %.3f of reference; times are at reference speed (divide by %.3f for wall-clock)\n", r.Speed, r.Speed)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-40s %14.6g %s", n, m.Value, m.Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	for _, s := range r.Stages {
		fmt.Fprintf(w, "  stage %-36s count %8d  self %10.2fms  total %10.2fms\n", s.Stage, s.Count, s.SelfMs, s.TotalMs)
	}
	if r.Fingerprint != "" {
		fmt.Fprintf(w, "trajectory fingerprint %s\n", r.Fingerprint)
	}
	fmt.Fprintf(w, "operations %d, failed %d\n", r.Attempted, r.Failed)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}

// runMeta describes the machine and build a ledger record was taken on.
type runMeta struct {
	Time       string `json:"time"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Store      string `json:"store"`
}

func appendLedger(path string, r *record) error {
	r.Meta = runMeta{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     buildinfo.Version(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Store:      "mem",
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel reads the processor name on Linux ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// usage prints the flags and the benchmark's tables.
func usage(w io.Writer, fs *flag.FlagSet, table []workloadDef) {
	fmt.Fprintln(w, "usage: e2ebench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1] [--ledger file]")
	fs.PrintDefaults()
	fmt.Fprintln(w, "\nworkloads:")
	for _, wl := range table {
		fmt.Fprintf(w, "  %-16s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (--trace 0), with the regression bound:")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-26s %-5s %-6s better, bound %.0f%%\n", d.Name, d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintln(w, "\nper-layer metrics (--trace 1), with the end-to-end metric@workload each should move:")
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-38s %-5s %s\n", d.Name, d.Unit, d.Moves)
	}
}
