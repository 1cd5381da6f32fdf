package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// The smoke specs are the three workloads cut to a few seconds in total:
// the same code paths, gates and metrics at the smallest useful size.

func smokeEngine() engineSpec {
	s := enginePoweramp
	s.seeds = []int64{1}
	s.cfg.MaxIterations = replayIterations
	return s
}

func smokeFleet() fleetSpec {
	s := fleetLadder
	s.quality, s.verify = 1, 1
	s.req.Budget = 6 // initialization costs 2.9
	return s
}

// TestWorkloadsAtSmokeSize runs every workload untraced and traced, once
// each, and checks the gates hold and every metric has a finite value.
func TestWorkloadsAtSmokeSize(t *testing.T) {
	for _, w := range []workloadDef{
		{name: "engine-poweramp", run: smokeEngine().run},
		{name: "replica-churn", run: replicaChurn.run}, // time-bounded already
		{name: "fleet-ladder", run: smokeFleet().run},
	} {
		for _, traced := range []bool{false, true} {
			rec, err := measure(w, 1, 200*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, %d/%d failed, violations %v",
					w.name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Violations)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m := rec.Metrics[d.Name]
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s = %v %q", w.name, traced, d.Name, m.Value, m.Unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the benchmark
// is judged by, in step with the metric and workload tables in this package.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	conv := func(defs []metricDef, bounded bool) []metric {
		out := make([]metric, len(defs))
		for i, d := range defs {
			out[i] = metric{Name: d.Name, Unit: d.Unit, Better: d.Better}
			if bounded {
				bound := d.Bound
				out[i].Bound = &bound
			}
		}
		return out
	}
	if !reflect.DeepEqual(b.EndToEnd, conv(endToEndDefs, true)) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%+v", b.EndToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, conv(perLayerDefs, false)) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
	if !reflect.DeepEqual(b.Paths, []string{"e2ebench"}) || b.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}
