package baselines

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/testfunc"
)

// goldenPath holds frozen WEIBO and GASPAD trajectories. They were recorded
// once, before the baselines' surrogate maintenance was cut down to the
// warm-started refit and frozen-hyperparameter refactorization, and are never
// regenerated: any change to a baseline's proposals shows up here.
const goldenPath = "testdata/baselines_golden.json"

// baselineGolden is one pinned run.
type baselineGolden struct {
	// Steps lists every simulated point in history order as
	// "<Float64bits of x[0]> <Float64bits of x[1]> ...", bits in hex.
	Steps []string `json:"steps"`
	// Best is the Float64bits of the reported best objective, in hex.
	Best string `json:"best"`
}

type baselineCase struct {
	name string
	run  func() (*core.Result, error)
}

func baselineGoldenCases() []baselineCase {
	problems := []struct {
		name string
		mk   func() problem.Problem
	}{
		{"constrained", func() problem.Problem { return testfunc.ConstrainedSynthetic() }},
		{"forrester", func() problem.Problem { return testfunc.Forrester() }},
	}
	var cases []baselineCase
	for _, pr := range problems {
		for _, refit := range []int{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				pr, refit, seed := pr, refit, seed
				cases = append(cases,
					baselineCase{
						name: fmt.Sprintf("weibo/%s/refit%d/seed%d", pr.name, refit, seed),
						run: func() (*core.Result, error) {
							return WEIBO(pr.mk(), core.Config{Budget: 18, InitHigh: 10, MSP: fastMSP(),
								RefitEvery: refit}, rand.New(rand.NewSource(seed)))
						},
					},
					baselineCase{
						name: fmt.Sprintf("gaspad/%s/refit%d/seed%d", pr.name, refit, seed),
						run: func() (*core.Result, error) {
							return GASPAD(pr.mk(), GASPADConfig{Budget: 20, Init: 10,
								RefitEvery: refit}, rand.New(rand.NewSource(seed)))
						},
					})
			}
		}
	}
	return cases
}

func recordBaseline(res *core.Result) baselineGolden {
	var g baselineGolden
	for _, ob := range res.History {
		parts := make([]string, len(ob.X))
		for j, v := range ob.X {
			parts[j] = fmt.Sprintf("%016x", math.Float64bits(v))
		}
		g.Steps = append(g.Steps, strings.Join(parts, " "))
	}
	g.Best = fmt.Sprintf("%016x", math.Float64bits(res.Best.Objective))
	return g
}

// TestBaselinesGolden replays every frozen WEIBO and GASPAD run and requires
// each simulated point and the reported best to match bit for bit.
func TestBaselinesGolden(t *testing.T) {
	replayGolden(t, goldenPath, baselineGoldenCases())
}

// deGoldenPath holds frozen DE baseline trajectories, recorded once before
// optimize.DE lost its test-only parallel, callback and seeding paths. Never
// regenerate it.
const deGoldenPath = "testdata/de_golden.json"

func deGoldenCases() []baselineCase {
	problems := []struct {
		name string
		mk   func() problem.Problem
	}{
		{"constrained", func() problem.Problem { return testfunc.ConstrainedSynthetic() }},
		{"forrester", func() problem.Problem { return testfunc.Forrester() }},
	}
	var cases []baselineCase
	for _, pr := range problems {
		for seed := int64(1); seed <= 2; seed++ {
			pr, seed := pr, seed
			cases = append(cases, baselineCase{
				name: fmt.Sprintf("de/%s/seed%d", pr.name, seed),
				run: func() (*core.Result, error) {
					return DE(pr.mk(), DEConfig{Budget: 60}, rand.New(rand.NewSource(seed)))
				},
			})
		}
	}
	return cases
}

// TestDEGolden replays every frozen DE baseline run bit for bit.
func TestDEGolden(t *testing.T) {
	replayGolden(t, deGoldenPath, deGoldenCases())
}

// replayGolden requires every case to reproduce its frozen run in path: each
// simulated point and the reported best, bit for bit.
func replayGolden(t *testing.T, path string, cases []baselineCase) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]baselineGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("fixture holds %d runs, want %d", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[c.name]
			if !ok {
				t.Fatal("run missing from fixture")
			}
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got := recordBaseline(res)
			if len(got.Steps) != len(w.Steps) {
				t.Fatalf("%d steps, want %d", len(got.Steps), len(w.Steps))
			}
			for i := range w.Steps {
				if got.Steps[i] != w.Steps[i] {
					t.Fatalf("step %d: x %s, want %s", i, got.Steps[i], w.Steps[i])
				}
			}
			if got.Best != w.Best {
				t.Fatalf("best %s, want %s", got.Best, w.Best)
			}
		})
	}
}
