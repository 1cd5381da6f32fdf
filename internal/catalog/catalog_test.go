package catalog

import (
	"sort"
	"testing"

	"repro/internal/problem"
)

// TestNamesSortedAndStable pins the registry listing: sorted, duplicate-free,
// and containing every built-in the CLI, server and workers rely on. Workers
// resolve session problems by these names, so a missing or renamed entry
// would strand a whole fleet.
func TestNamesSortedAndStable(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"poweramp", "chargepump", // circuit testbenches
		"forrester", "branin", "currin", "park", "borehole", "hartmann3", // MF benchmarks
		"pedagogical", "constrained",
	} {
		if !seen[want] {
			t.Fatalf("built-in %q missing from Names() = %v", want, names)
		}
	}
}

// TestLookupFreshInstances verifies every built-in constructs, is internally
// consistent (dim/bounds/constraints agree, midpoint evaluates at both
// fidelities, low costs less than high), and that Lookup returns a fresh
// instance per call — two sessions must never share one problem's caches.
func TestLookupFreshInstances(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p1, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if p1 == p2 {
				t.Fatal("Lookup returned a shared instance")
			}
			lo, hi := p1.Bounds()
			if len(lo) != p1.Dim() || len(hi) != p1.Dim() {
				t.Fatalf("bounds dim %d/%d != Dim %d", len(lo), len(hi), p1.Dim())
			}
			x := make([]float64, p1.Dim())
			for i := range x {
				if lo[i] >= hi[i] {
					t.Fatalf("degenerate bounds [%v, %v] at dim %d", lo[i], hi[i], i)
				}
				x[i] = (lo[i] + hi[i]) / 2
			}
			for _, f := range []problem.Fidelity{problem.Low, problem.High} {
				ev := p1.Evaluate(x, f)
				if len(ev.Constraints) != p1.NumConstraints() {
					t.Fatalf("%v evaluation has %d constraints, want %d", f, len(ev.Constraints), p1.NumConstraints())
				}
				if !ev.IsFinite() {
					t.Fatalf("%v evaluation at the midpoint is non-finite: %+v", f, ev)
				}
			}
			if cl, ch := p1.Cost(problem.Low), p1.Cost(problem.High); !(cl > 0 && ch > 0 && cl < ch) {
				t.Fatalf("cost model low=%v high=%v, want 0 < low < high", cl, ch)
			}
		})
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-problem"); err == nil {
		t.Fatal("Lookup of unknown name succeeded")
	}
}
