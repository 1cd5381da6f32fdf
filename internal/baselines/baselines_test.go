package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/testfunc"
)

func fastMSP() optimize.MSPConfig {
	return optimize.MSPConfig{Starts: 6, LocalIter: 25}
}

func TestWEIBOValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := WEIBO(testfunc.Pedagogical(), core.Config{}, rng); err == nil {
		t.Fatal("expected error for zero budget")
	}
	if _, err := WEIBO(testfunc.Pedagogical(), core.Config{Budget: 10, InitHigh: 10}, rng); err == nil {
		t.Fatal("expected error for InitHigh >= Budget")
	}
}

func TestWEIBOUnconstrained(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(2))
	res, err := WEIBO(p, core.Config{Budget: 25, InitHigh: 10, MSP: fastMSP()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumHigh != 25 {
		t.Fatalf("simulations %d, want exactly 25", res.NumHigh)
	}
	// Forrester optimum is ≈ −6.0207.
	if res.Best.Objective > -5.5 {
		t.Fatalf("WEIBO best %.4f, want near -6.02", res.Best.Objective)
	}
}

func TestWEIBOConstrained(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	rng := rand.New(rand.NewSource(3))
	res, err := WEIBO(p, core.Config{Budget: 30, InitHigh: 12, MSP: fastMSP()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("WEIBO found no feasible point: %+v", res.Best)
	}
	_, fOpt := testfunc.ConstrainedSyntheticOptimum()
	if res.Best.Objective > fOpt+0.35 {
		t.Fatalf("WEIBO feasible best %.4f too far from optimum %.4f", res.Best.Objective, fOpt)
	}
}

func TestWEIBOHistoryMonotoneCost(t *testing.T) {
	p := testfunc.Pedagogical()
	rng := rand.New(rand.NewSource(4))
	res, err := WEIBO(p, core.Config{Budget: 15, InitHigh: 8, MSP: fastMSP()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, ob := range res.History {
		if ob.Fid != problem.High {
			t.Fatal("WEIBO must only evaluate high fidelity")
		}
		if ob.CumCost != float64(i+1) {
			t.Fatalf("cost at %d is %v", i, ob.CumCost)
		}
	}
	if res.EquivalentSims != float64(res.NumHigh) {
		t.Fatal("single-fidelity equivalent sims must equal the count")
	}
}

// TestBaselinesIncrementalSchedule runs both baselines with a real
// fit-skipping schedule (frozen hyperparameters between refits): the run must
// spend its exact budget, keep a finite best, and still land in the optimum's
// basin.
func TestBaselinesIncrementalSchedule(t *testing.T) {
	t.Run("WEIBO", func(t *testing.T) {
		res, err := WEIBO(testfunc.Forrester(), core.Config{
			Budget: 24, InitHigh: 10, MSP: fastMSP(), RefitEvery: 3,
		}, rand.New(rand.NewSource(43)))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumHigh != 24 {
			t.Fatalf("simulations %d, want exactly 24", res.NumHigh)
		}
		if math.IsNaN(res.Best.Objective) || res.Best.Objective > -5.0 {
			t.Fatalf("WEIBO best %.4f, want < -5", res.Best.Objective)
		}
	})
	t.Run("GASPAD", func(t *testing.T) {
		res, err := GASPAD(testfunc.Forrester(), GASPADConfig{
			Budget: 30, Init: 12, RefitEvery: 3,
		}, rand.New(rand.NewSource(44)))
		if err != nil {
			t.Fatal(err)
		}
		if res.NumHigh != 30 {
			t.Fatalf("simulations %d, want exactly 30", res.NumHigh)
		}
		if math.IsNaN(res.Best.Objective) || res.Best.Objective > -4.5 {
			t.Fatalf("GASPAD best %.4f, want < -4.5", res.Best.Objective)
		}
	})
}

// nanEvery wraps a problem so that every n-th Evaluate returns NaN outputs,
// like a simulator that fails to converge.
type nanEvery struct {
	problem.Problem
	n, calls int
}

func (p *nanEvery) Evaluate(x []float64, f problem.Fidelity) problem.Evaluation {
	p.calls++
	if p.calls%p.n == 0 {
		return problem.Evaluation{Objective: math.NaN()}
	}
	return p.Problem.Evaluate(x, f)
}

// TestBaselinesSurviveFailedEvaluations checks that a NaN evaluation is
// charged and recorded as failed but kept out of surrogate training, so the
// run finishes with a finite best instead of aborting.
func TestBaselinesSurviveFailedEvaluations(t *testing.T) {
	for name, run := range map[string]func(problem.Problem, *rand.Rand) (*core.Result, error){
		"WEIBO": func(p problem.Problem, rng *rand.Rand) (*core.Result, error) {
			return WEIBO(p, core.Config{Budget: 20, InitHigh: 8, MSP: fastMSP()}, rng)
		},
		"GASPAD": func(p problem.Problem, rng *rand.Rand) (*core.Result, error) {
			return GASPAD(p, GASPADConfig{Budget: 20, Init: 8}, rng)
		},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := run(&nanEvery{Problem: testfunc.Forrester(), n: 7}, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			if res.NumHigh != 20 || res.NumFailed == 0 {
				t.Fatalf("NumHigh %d NumFailed %d, want 20 simulations with failures", res.NumHigh, res.NumFailed)
			}
			failed := 0
			for _, ob := range res.History {
				if ob.Eval.Failed {
					failed++
				}
			}
			if failed != res.NumFailed {
				t.Fatalf("%d failed observations in History, NumFailed %d", failed, res.NumFailed)
			}
			if math.IsNaN(res.Best.Objective) || math.IsInf(res.Best.Objective, 0) || res.Best.Failed {
				t.Fatalf("best %+v, want a finite successful evaluation", res.Best)
			}
		})
	}
}

func TestGASPADValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := GASPAD(testfunc.Pedagogical(), GASPADConfig{}, rng); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestGASPADUnconstrained(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(6))
	res, err := GASPAD(p, GASPADConfig{Budget: 35, Init: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumHigh != 35 {
		t.Fatalf("simulations %d, want exactly 35", res.NumHigh)
	}
	if res.Best.Objective > -5.0 {
		t.Fatalf("GASPAD best %.4f, want < -5", res.Best.Objective)
	}
}

func TestGASPADConstrained(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	rng := rand.New(rand.NewSource(7))
	res, err := GASPAD(p, GASPADConfig{Budget: 40, Init: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("GASPAD found no feasible point: %+v", res.Best)
	}
}

func TestDEValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if _, err := DE(testfunc.Pedagogical(), DEConfig{}, rng); err == nil {
		t.Fatal("expected error for zero budget")
	}
}

func TestDERespectsBudgetExactly(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(9))
	res, err := DE(p, DEConfig{Budget: 60}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumHigh != 60 {
		t.Fatalf("simulations %d, want exactly 60", res.NumHigh)
	}
	if len(res.History) != 60 {
		t.Fatalf("history %d entries", len(res.History))
	}
}

func TestDEFindsForresterBasin(t *testing.T) {
	p := testfunc.Forrester()
	rng := rand.New(rand.NewSource(10))
	res, err := DE(p, DEConfig{Budget: 300}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Objective > -5.5 {
		t.Fatalf("DE best %.4f after 300 sims", res.Best.Objective)
	}
}

func TestDEConstrainedPrefersFeasible(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	rng := rand.New(rand.NewSource(11))
	res, err := DE(p, DEConfig{Budget: 400}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("DE found no feasible point in 400 sims")
	}
	e := p.Evaluate(res.BestX, problem.High)
	if !e.Feasible() {
		t.Fatal("reported best not feasible on re-evaluation")
	}
}

// The headline comparison shape on a cheap synthetic problem: BO methods
// reach a good feasible solution with far fewer simulations than DE.
func TestBOBeatsDEAtEqualBudget(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	_, fOpt := testfunc.ConstrainedSyntheticOptimum()
	rngW := rand.New(rand.NewSource(12))
	w, err := WEIBO(p, core.Config{Budget: 30, InitHigh: 12, MSP: fastMSP()}, rngW)
	if err != nil {
		t.Fatal(err)
	}
	rngD := rand.New(rand.NewSource(12))
	de, err := DE(p, DEConfig{Budget: 30}, rngD)
	if err != nil {
		t.Fatal(err)
	}
	wGap := w.Best.Objective - fOpt
	deGap := de.Best.Objective - fOpt
	if !w.Feasible {
		t.Fatal("WEIBO infeasible at budget 30")
	}
	// DE at 30 sims is usually infeasible or far; if feasible it should
	// still not beat WEIBO materially.
	if de.Feasible && deGap+0.05 < wGap {
		t.Fatalf("DE (%.3f) unexpectedly dominated WEIBO (%.3f) at tiny budget", deGap, wGap)
	}
}

func TestBestObservationHelper(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	Y := [][]float64{{5, 1}, {3, -1}, {4, -1}}
	x, e, feas := bestObservation(X, Y)
	if !feas || x[0] != 1 || e.Objective != 3 {
		t.Fatalf("bestObservation = %v %+v %v", x, e, feas)
	}
	if _, _, ok := bestObservation(nil, nil); ok {
		t.Fatal("empty dataset should report not-feasible")
	}
}

func TestDuplicateIn(t *testing.T) {
	X := [][]float64{{0.1, 0.2}}
	if !duplicateIn(X, []float64{0.1, 0.2}) {
		t.Fatal("duplicate missed")
	}
	if duplicateIn(X, []float64{0.1, 0.3}) {
		t.Fatal("false duplicate")
	}
}

func TestPenaltyDominatesObjective(t *testing.T) {
	// Any violation must outweigh the objective range on our testbenches.
	if penaltyWeight*0.01 < 1000 {
		t.Fatal("penalty weight too small to enforce feasibility-first")
	}
	_ = math.Pi
}
