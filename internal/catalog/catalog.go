// Package catalog is the shared registry of built-in problems: the
// single place where a problem name ("poweramp", "forrester", …) maps to a
// constructor. The CLI (cmd/mfbo), the optimization service (internal/server,
// cmd/mfbod) and remote clients all resolve names through it, so a session
// created over HTTP refers to exactly the same problem instance semantics as
// an in-process run.
package catalog

import (
	"fmt"
	"sort"

	"repro/internal/fidelity"
	"repro/internal/problem"
	"repro/internal/testbench"
	"repro/internal/testfunc"
)

// builtins maps names to fresh-instance constructors. Constructors (not
// shared instances) matter: some problems carry mutable caches, and two
// concurrent sessions must never share one.
var builtins = map[string]func() problem.Problem{
	"poweramp":    func() problem.Problem { return testbench.NewPowerAmp() },
	"chargepump":  func() problem.Problem { return testbench.NewChargePump() },
	"pedagogical": func() problem.Problem { return testfunc.Pedagogical() },
	"forrester":   func() problem.Problem { return testfunc.Forrester() },
	"branin":      func() problem.Problem { return testfunc.BraninMF() },
	"currin":      func() problem.Problem { return testfunc.CurrinMF() },
	"park":        func() problem.Problem { return testfunc.ParkMF() },
	"borehole":    func() problem.Problem { return testfunc.BoreholeMF() },
	"hartmann3":   func() problem.Problem { return testfunc.Hartmann3() },
	"constrained": func() problem.Problem { return testfunc.ConstrainedSynthetic() },
	// Three-rung fidelity-ladder problems (K = 3).
	"forrester3":  func() problem.Problem { return testfunc.Forrester3() },
	"poweramp3":   func() problem.Problem { return testbench.NewPowerAmp3() },
	"chargepump3": func() problem.Problem { return testbench.NewChargePump3() },
}

// Lookup instantiates the named problem. The error lists the valid names.
func Lookup(name string) (problem.Problem, error) {
	mk, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown problem %q (have %v)", name, Names())
	}
	return mk(), nil
}

// Names returns the sorted registry keys.
func Names() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Info describes one registered problem: shape, constraints and its fidelity
// ladder — everything a client needs to choose a problem without
// instantiating it.
type Info struct {
	// Name is the registry key; ProblemName the instance's own Name().
	Name        string
	ProblemName string
	Dim         int
	Constraints int
	// Rungs is the fidelity rung count (2 for classic problems); RungCosts
	// the per-rung relative costs (RungCosts[Rungs-1] == 1).
	Rungs     int
	RungCosts []float64
}

// Describe instantiates the named problem and summarizes it.
func Describe(name string) (Info, error) {
	p, err := Lookup(name)
	if err != nil {
		return Info{}, err
	}
	ladder, err := fidelity.OfProblem(p)
	if err != nil {
		return Info{}, fmt.Errorf("catalog: problem %q: %w", name, err)
	}
	return Info{
		Name:        name,
		ProblemName: p.Name(),
		Dim:         p.Dim(),
		Constraints: p.NumConstraints(),
		Rungs:       ladder.Rungs(),
		RungCosts:   ladder.Costs(),
	}, nil
}

// Infos summarizes every registered problem, sorted by name.
func Infos() ([]Info, error) {
	var out []Info
	for _, n := range Names() {
		info, err := Describe(n)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}
