package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/problem"
)

func TestFingerprintSeesEveryBit(t *testing.T) {
	base := []step{
		{X: []float64{0.25, 0.5}, Rung: 0, Eval: problem.Evaluation{Objective: -1}},
		{X: []float64{0.75, 0.125}, Rung: 1, Eval: problem.Evaluation{Objective: 2}},
	}
	clone := func() []step {
		out := make([]step, len(base))
		for i, s := range base {
			out[i] = s
			out[i].X = append([]float64(nil), s.X...)
		}
		return out
	}
	if fingerprint(clone()) != fingerprint(base) {
		t.Fatal("equal trajectories must fingerprint equal")
	}
	for name, mutate := range map[string]func([]step){
		"x":         func(s []step) { s[1].X[0] = math.Nextafter(s[1].X[0], 1) },
		"rung":      func(s []step) { s[0].Rung = 1 },
		"objective": func(s []step) { s[0].Eval.Objective = math.Nextafter(-1, 0) },
		"order":     func(s []step) { s[0], s[1] = s[1], s[0] },
	} {
		s := clone()
		mutate(s)
		if fingerprint(s) == fingerprint(base) {
			t.Errorf("changing the %s left the fingerprint unchanged", name)
		}
	}
}

func TestCostToTarget(t *testing.T) {
	steps := []step{
		{Rung: 1, Eval: problem.Evaluation{Objective: -7}, CumCost: 1},                                 // low rung: ignored
		{Rung: 2, Eval: problem.Evaluation{Objective: -7, Failed: true}, CumCost: 2},                   // failed
		{Rung: 2, Eval: problem.Evaluation{Objective: -7, Constraints: []float64{0.5}}, CumCost: 3},    // infeasible
		{Rung: 2, Eval: problem.Evaluation{Objective: -5, Constraints: []float64{-0.5}}, CumCost: 4},   // above target
		{Rung: 2, Eval: problem.Evaluation{Objective: -6, Constraints: []float64{-0.5}}, CumCost: 5.5}, // first hit
		{Rung: 2, Eval: problem.Evaluation{Objective: -8, Constraints: []float64{-0.5}}, CumCost: 6},
	}
	if got := costToTarget(steps, 2, -5.5, 20); got != 5.5 {
		t.Errorf("cost to target = %v, want 5.5", got)
	}
	if got := costToTarget(steps, 2, -9, 20); got != 20 {
		t.Errorf("never reached: %v, want the budget 20", got)
	}
}

// TestViolatedGateFailsTheRun checks that a gate violation turns into
// "correct": false on the result line and a non-zero exit.
func TestViolatedGateFailsTheRun(t *testing.T) {
	spec := smokeEngine()
	ref, err := core.Optimize(mustLookup(spec.problem), spec.cfg, rand.New(rand.NewSource(spec.seeds[0])))
	if err != nil {
		t.Fatal(err)
	}
	measured := stepsOfCore(ref.History)
	if v := spec.replayGate(measured); v != "" {
		t.Fatalf("replay gate rejected an untouched trajectory: %s", v)
	}
	x := append([]float64(nil), measured[0].X...)
	x[0] = math.Nextafter(x[0], math.Inf(1))
	measured[0].X = x
	v := spec.replayGate(measured)
	if v == "" {
		t.Fatal("replay gate accepted a tampered trajectory")
	}

	broken := workloadDef{name: "broken", run: func(seed int64, d time.Duration, traced bool) (*pass, error) {
		p, err := spec.run(seed, d, traced)
		if err == nil {
			p.violations = append(p.violations, v)
		}
		return p, err
	}}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "broken", "--seconds", "0.001"}, []workloadDef{broken}, &out, &errOut)
	if code == 0 {
		t.Fatalf("run exited 0 with a violated gate\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if res.Correct {
		t.Error(`result line says "correct": true`)
	}
	if !strings.Contains(out.String(), "VIOLATION: Workers=1 trajectory") {
		t.Errorf("the violation is not printed:\n%s", out.String())
	}
}
