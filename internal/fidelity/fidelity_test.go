package fidelity

import (
	"testing"

	"repro/internal/problem"
	"repro/internal/testfunc"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		costs []float64
		ok    bool
	}{
		{"two-level", []float64{0.1, 1}, true},
		{"three-level", []float64{0.05, 0.3, 1}, true},
		{"one rung", []float64{1}, true},
		{"one rung not unit", []float64{0.5}, false},
		{"empty", nil, false},
		{"non-increasing", []float64{0.5, 0.5, 1}, false},
		{"decreasing", []float64{0.5, 0.1, 1}, false},
		{"zero cost", []float64{0, 1}, false},
		{"negative cost", []float64{-0.1, 1}, false},
		{"target not unit", []float64{0.1, 0.9}, false},
	}
	for _, tc := range cases {
		_, err := FromCosts(tc.costs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: FromCosts(%v) err=%v, want ok=%v", tc.name, tc.costs, err, tc.ok)
		}
	}
	// The single rung of a one-rung ladder is the target.
	if l, _ := FromCosts([]float64{1}); l.Target() != 0 || l.Name(0) != "high" {
		t.Errorf("one rung: Target=%d Name(0)=%q, want 0/high", l.Target(), l.Name(0))
	}
}

func TestTwoLevelNamesAndCosts(t *testing.T) {
	l, err := TwoLevel(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rungs() != 2 || l.Target() != 1 {
		t.Fatalf("Rungs=%d Target=%d, want 2/1", l.Rungs(), l.Target())
	}
	if l.Name(0) != "low" || l.Name(1) != "high" {
		t.Fatalf("names %q/%q, want low/high", l.Name(0), l.Name(1))
	}
	if l.Cost(0) != 0.1 || l.Cost(1) != 1 {
		t.Fatalf("costs %g/%g", l.Cost(0), l.Cost(1))
	}
}

func TestThreeLevelNames(t *testing.T) {
	l, err := FromCosts([]float64{0.05, 0.3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"low", "mid1", "high"}
	for k, w := range want {
		if l.Name(k) != w {
			t.Errorf("Name(%d)=%q, want %q", k, l.Name(k), w)
		}
	}
	costs := l.Costs()
	costs[0] = 99 // Costs must be a copy
	if l.Cost(0) != 0.05 {
		t.Fatal("Costs() aliases internal state")
	}
}

func TestOfProblemTwoFidelityMatchesCostRatio(t *testing.T) {
	p := testfunc.Forrester()
	l, err := OfProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rungs() != 2 {
		t.Fatalf("Rungs=%d, want 2", l.Rungs())
	}
	// Bit-identity with the engine's historical costLow expression.
	want := p.Cost(problem.Low) / p.Cost(problem.High)
	if l.Cost(0) != want {
		t.Fatalf("Cost(0)=%g, want %g (exact)", l.Cost(0), want)
	}
}

func TestOfProblemThreeRungs(t *testing.T) {
	p := testfunc.Forrester3()
	l, err := OfProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rungs() != 3 {
		t.Fatalf("Rungs=%d, want 3", l.Rungs())
	}
	target := p.Cost(problem.Fidelity(2))
	for k := 0; k < 3; k++ {
		if got, want := l.Cost(k), p.Cost(problem.Fidelity(k))/target; got != want {
			t.Errorf("Cost(%d)=%g, want %g", k, got, want)
		}
	}
}

func TestTwoFidelityView(t *testing.T) {
	p := testfunc.Forrester3()
	v := NewTwoFidelityView(p)
	if problem.NumFidelities(v) != 2 {
		t.Fatalf("view NumFidelities=%d, want 2", problem.NumFidelities(v))
	}
	if v.Name() != p.Name()+"-2f" {
		t.Fatalf("view name %q", v.Name())
	}
	x := []float64{0.4}
	if got, want := v.Evaluate(x, problem.Low), p.Evaluate(x, problem.Low); got.Objective != want.Objective {
		t.Fatalf("low eval %g != %g", got.Objective, want.Objective)
	}
	if got, want := v.Evaluate(x, problem.High), p.Evaluate(x, problem.Fidelity(2)); got.Objective != want.Objective {
		t.Fatalf("high eval should hit rung 2: %g != %g", got.Objective, want.Objective)
	}
	if v.Cost(problem.High) != p.Cost(problem.Fidelity(2)) {
		t.Fatal("high cost should be the target rung's")
	}
	if v.Cost(problem.Low) != p.Cost(problem.Low) {
		t.Fatal("low cost should be rung 0's")
	}
	l, err := OfProblem(v)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rungs() != 2 {
		t.Fatalf("view ladder Rungs=%d, want 2", l.Rungs())
	}
}

func TestNumFidelitiesUnwraps(t *testing.T) {
	if got := problem.NumFidelities(testfunc.Forrester3()); got != 3 {
		t.Fatalf("Forrester3 NumFidelities=%d, want 3", got)
	}
	if got := problem.NumFidelities(testfunc.Forrester()); got != 2 {
		t.Fatalf("Forrester NumFidelities=%d, want 2", got)
	}
}
