package experiments

import (
	"testing"

	"repro/internal/testfunc"
)

// microScale is the smallest complete experiment: one replication per
// algorithm with minimal budgets, exercising the full table pipeline.
func microScale() Scale {
	return Scale{
		Runs:       1,
		MFBOBudget: 8, MFBOInitLow: 6, MFBOInitHigh: 3,
		WEIBOBudget: 8, WEIBOInit: 4,
		GASPADBudget: 12, GASPADInit: 6,
		DEBudget:  12,
		MSPStarts: 4, LocalIter: 10,
		GPRestarts: 1, GPMaxIter: 25, RefitEvery: 3,
		MCSamples: 10,
	}
}

func TestRunAllProblemProducesAllAlgos(t *testing.T) {
	stats, err := runAllProblem(testfunc.ConstrainedSynthetic(), microScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AlgoOrder {
		a, ok := stats[name]
		if !ok {
			t.Fatalf("missing algorithm %s", name)
		}
		if len(a.Results) != 1 {
			t.Fatalf("%s: %d results", name, len(a.Results))
		}
		if a.Results[0].NumHigh == 0 {
			t.Fatalf("%s: no high-fidelity evaluations", name)
		}
	}
}
