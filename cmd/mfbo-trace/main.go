// Command mfbo-trace renders a structured telemetry event log (the JSONL
// stream written by `mfbo -telemetry run.jsonl` or by a telemetry-enabled
// service session) into human-readable reports:
//
//	mfbo-trace run.jsonl            per-iteration convergence/fidelity table
//	mfbo-trace -spans run.jsonl     per-stage span table (self and total time)
//	mfbo-trace -faults run.jsonl    robust-layer fault events
//	mfbo-trace -raw run.jsonl       re-emit events as indented JSON
//
// With -merge it becomes the fleet's cross-process trace assembler: give it
// the span JSONL files of every process (gateway, replicas, workers — the
// -telemetry flag of each daemon) and it reconstructs each distributed trace
// from the shared 128-bit trace IDs, renders the slowest trees with their
// critical paths, flags orphaned spans (a parent's process died before
// flushing, or a file was not collected), and prints the fleet-wide per-stage
// latency attribution table:
//
//	mfbo-trace -merge gw.jsonl ra.jsonl rb.jsonl worker.jsonl
//	mfbo-trace -merge -min-complete 1 gw.jsonl ra.jsonl   # CI gate
//
// The iteration table shows, per adaptive iteration, the §3.4 fidelity
// decision (σ²_max vs (1+Nc)·γ), the wEI acquisition value at the argmax,
// the observed objective, the running best and any notes (bootstrap mode,
// degradation rung, duplicate fallback, failures). It reads from stdin when
// the path is "-".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	spans := flag.Bool("spans", false, "print the per-stage span table (self and total time) instead of the iteration table")
	faults := flag.Bool("faults", false, "print robust-layer fault events")
	raw := flag.Bool("raw", false, "re-emit every event as indented JSON")
	merge := flag.Bool("merge", false, "assemble cross-process traces from one or more span JSONL files")
	minComplete := flag.Int("min-complete", 0, "with -merge: exit nonzero unless at least this many complete cross-process traces assembled")
	showTraces := flag.Int("traces", 3, "with -merge: render at most this many trace trees (slowest first)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mfbo-trace"))
		return
	}
	if *merge {
		runMerge(flag.Args(), *minComplete, *showTraces)
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: mfbo-trace [-spans|-faults|-raw] <events.jsonl | ->\n       mfbo-trace -merge [-min-complete n] <spans.jsonl>...")
	}

	var events []telemetry.Event
	var err error
	if path := flag.Arg(0); path == "-" {
		events, err = telemetry.ReadJSONL(os.Stdin)
	} else {
		events, err = telemetry.ReadJSONLFile(path)
	}
	if err != nil {
		log.Fatalf("mfbo-trace: %v", err)
	}
	if len(events) == 0 {
		log.Fatal("mfbo-trace: no events")
	}

	switch {
	case *raw:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				log.Fatalf("mfbo-trace: %v", err)
			}
		}
	case *faults:
		n := 0
		for _, ev := range events {
			if ev.Fault == nil {
				continue
			}
			n++
			fmt.Printf("%-8s %-8s attempt=%d %s\n", ev.Fault.Fidelity, ev.Fault.Kind, ev.Fault.Attempt, ev.Fault.Err)
		}
		if n == 0 {
			fmt.Println("no fault events")
		}
	case *spans:
		fmt.Print(telemetry.StageTable(telemetry.AssembleTraces(events)))
	default:
		fmt.Print(telemetry.Summarize(events).Table())
	}
}

// runMerge reads every span stream, reassembles the distributed traces, and
// reports: per-file span counts, assembly totals, the slowest trace trees
// with critical paths, and the fleet-wide per-stage latency table. The
// -min-complete gate counts traces that assembled with a single root, no
// orphans, and spans from at least two services — a proven
// gateway→replica(→worker) round trip.
func runMerge(paths []string, minComplete, showTraces int) {
	if len(paths) == 0 {
		log.Fatal("usage: mfbo-trace -merge [-min-complete n] <spans.jsonl>...")
	}
	var events []telemetry.Event
	for _, p := range paths {
		evs, err := telemetry.ReadJSONLFile(p)
		if err != nil {
			log.Fatalf("mfbo-trace: %s: %v", p, err)
		}
		n := 0
		for _, ev := range evs {
			if ev.Span != nil {
				n++
			}
		}
		fmt.Printf("%-40s %7d events %7d spans\n", p, len(evs), n)
		events = append(events, evs...)
	}
	traces := telemetry.AssembleTraces(events)
	complete, cross, orphans := 0, 0, 0
	for _, t := range traces {
		if t.Complete() {
			complete++
			if t.CrossProcess() {
				cross++
			}
		}
		orphans += len(t.Orphans)
	}
	fmt.Printf("\n%d traces assembled: %d complete, %d complete cross-process, %d orphaned spans\n\n",
		len(traces), complete, cross, orphans)

	// Render the slowest single-rooted traces — the breakdowns that matter.
	byDur := make([]*telemetry.Trace, 0, len(traces))
	for _, t := range traces {
		if t.Root != nil {
			byDur = append(byDur, t)
		}
	}
	sort.Slice(byDur, func(i, j int) bool { return byDur[i].Root.DurNs > byDur[j].Root.DurNs })
	for i, t := range byDur {
		if i >= showTraces {
			break
		}
		fmt.Print(t.Render())
		fmt.Print(t.RenderCriticalPath())
		fmt.Println()
	}
	fmt.Print(telemetry.StageTable(traces))
	if cross < minComplete {
		log.Fatalf("mfbo-trace: %d complete cross-process trace(s) assembled; need at least %d", cross, minComplete)
	}
}
