package testbench

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/problem"
	"repro/internal/stats"
)

func TestPowerAmpInterface(t *testing.T) {
	pa := NewPowerAmp()
	if pa.Dim() != 5 || pa.NumConstraints() != 2 {
		t.Fatal("PA shape wrong")
	}
	lo, hi := pa.Bounds()
	if len(lo) != 5 || len(hi) != 5 {
		t.Fatal("PA bounds wrong length")
	}
	for i := range lo {
		if lo[i] >= hi[i] {
			t.Fatalf("PA bound %d inverted", i)
		}
	}
	if pa.Cost(problem.Low) != 1.0/20 || pa.Cost(problem.High) != 1 {
		t.Fatal("PA cost ratio should be 1:20")
	}
}

func paMidpoint() []float64 { return []float64{11, 1.1, 0.27, 1.5, 1.5} }

func TestPowerAmpSimulateFinite(t *testing.T) {
	pa := NewPowerAmp()
	for _, f := range []problem.Fidelity{problem.Low, problem.High} {
		r := pa.Simulate(paMidpoint(), f)
		if math.IsNaN(r.EffPct) || math.IsNaN(r.PoutDBm) || math.IsNaN(r.THDdB) {
			t.Fatalf("NaN metrics at %v: %+v", f, r)
		}
		if r.EffPct < 0 || r.EffPct > 100 {
			t.Fatalf("efficiency %v out of range", r.EffPct)
		}
	}
}

func TestPowerAmpEvaluationConsistency(t *testing.T) {
	pa := NewPowerAmp()
	x := paMidpoint()
	r := pa.Simulate(x, problem.High)
	e := pa.Evaluate(x, problem.High)
	if e.Objective != -r.EffPct {
		t.Fatal("objective must be −Eff")
	}
	if e.Constraints[0] != 23-r.PoutDBm {
		t.Fatal("Pout constraint packed wrong")
	}
	if e.Constraints[1] != r.THDdB-13.65 {
		t.Fatal("THD constraint packed wrong")
	}
}

func TestPowerAmpDeterministic(t *testing.T) {
	pa := NewPowerAmp()
	a := pa.Simulate(paMidpoint(), problem.High)
	b := pa.Simulate(paMidpoint(), problem.High)
	if a != b {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestPowerAmpFidelitiesCorrelateButDiffer(t *testing.T) {
	// Over a random sample, low and high fidelity efficiencies must be
	// positively correlated yet not identical (the low model is biased).
	pa := NewPowerAmp()
	lo, hi := pa.Bounds()
	rng := rand.New(rand.NewSource(1))
	pts := stats.LatinHypercube(rng, lo, hi, 12)
	var hs, ls []float64
	for _, x := range pts {
		hs = append(hs, pa.Simulate(x, problem.High).EffPct)
		ls = append(ls, pa.Simulate(x, problem.Low).EffPct)
	}
	if corr(hs, ls) < 0.5 {
		t.Fatalf("fidelity correlation %.3f too weak", corr(hs, ls))
	}
	same := 0
	for i := range hs {
		if hs[i] == ls[i] {
			same++
		}
	}
	if same == len(hs) {
		t.Fatal("low fidelity identical to high — no bias to fuse away")
	}
}

func TestPowerAmpVbSweepNonlinearCorrelation(t *testing.T) {
	// The Figure-3 property: sweeping Vb with the rest fixed, low and high
	// fidelity efficiency curves are related but not by a constant offset.
	pa := NewPowerAmp()
	x := paMidpoint()
	var diffs []float64
	for _, vb := range []float64{1.0, 1.25, 1.5, 1.75, 2.0} {
		x[4] = vb
		h := pa.Simulate(x, problem.High).EffPct
		l := pa.Simulate(x, problem.Low).EffPct
		diffs = append(diffs, h-l)
	}
	lo, hi := stats.Summarize(diffs).Min, stats.Summarize(diffs).Max
	if hi-lo < 0.5 {
		t.Fatalf("low/high discrepancy is a constant offset (spread %.3f) — correlation is linear", hi-lo)
	}
}

func TestPowerAmpHasFeasibleRegion(t *testing.T) {
	// The known-good corner from design-space exploration.
	pa := NewPowerAmp()
	e := pa.Evaluate([]float64{18.6, 1.86, 0.43, 1.67, 1.94}, problem.High)
	if !e.Feasible() {
		t.Fatalf("known feasible design violated the spec: %+v", e)
	}
}

func corr(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i] / float64(len(a))
		mb += b[i] / float64(len(b))
	}
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

func TestChargePumpInterface(t *testing.T) {
	cp := NewChargePump()
	if cp.Dim() != 36 || cp.NumConstraints() != 5 {
		t.Fatalf("CP shape: dim %d nc %d", cp.Dim(), cp.NumConstraints())
	}
	if cp.Cost(problem.Low) != 1.0/27 {
		t.Fatal("CP cost ratio should be 1:27")
	}
	if len(TransistorNames()) != 18 {
		t.Fatal("expected 18 sized transistors")
	}
	if len(Corners27()) != 27 {
		t.Fatal("expected 27 corners")
	}
}

// tunedChargePump returns the hand-tuned 2:1-mirror design used as a
// feasibility witness.
func tunedChargePump() []float64 {
	cp := NewChargePump()
	x := make([]float64, cp.Dim())
	for k, n := range TransistorNames() {
		w, l := 5.0, 0.2
		switch n {
		case "M1", "M1C", "M1R", "M1RC":
			w = 20
		case "MP_DIODE", "MP_DIODEC":
			w = 10
		case "M2", "M2C", "M2R", "M2RC":
			w = 10
		case "MN_DIODE", "MN_MIR1", "MN_MIR1C":
			w = 5
		case "MSW_UP":
			w = 30
		case "MSW_DN":
			w = 15
		case "MN_BLEED":
			w, l = 0.4, 0.4
		}
		x[2*k], x[2*k+1] = w, l
	}
	return x
}

func TestChargePumpTunedDesignFeasible(t *testing.T) {
	cp := NewChargePump()
	e := cp.Evaluate(tunedChargePump(), problem.High)
	if !e.Feasible() {
		t.Fatalf("tuned design infeasible: %+v", e)
	}
	if e.Objective > 5 {
		t.Fatalf("tuned design FOM %v unexpectedly bad", e.Objective)
	}
}

func TestChargePumpRandomDesignsMostlyInfeasible(t *testing.T) {
	cp := NewChargePump()
	lo, hi := cp.Bounds()
	rng := rand.New(rand.NewSource(2))
	feasible := 0
	for _, x := range stats.LatinHypercube(rng, lo, hi, 8) {
		if cp.Evaluate(x, problem.Low).Feasible() {
			feasible++
		}
	}
	if feasible > 4 {
		t.Fatalf("%d/8 random designs feasible — problem too easy", feasible)
	}
}

func TestChargePumpLowVsHighFidelity(t *testing.T) {
	cp := NewChargePump()
	x := tunedChargePump()
	h := cp.Simulate(x, problem.High)
	l := cp.Simulate(x, problem.Low)
	// The multi-corner deviation must be at least the nominal-corner one
	// (maxima over a superset).
	if h.Deviation < l.Deviation-1e-9 {
		t.Fatalf("27-corner deviation %v below nominal-corner %v", h.Deviation, l.Deviation)
	}
	if h.MaxDiff1 < l.MaxDiff1-1e-9 || h.MaxDiff3 < l.MaxDiff3-1e-9 {
		t.Fatal("corner maxima must dominate the nominal corner")
	}
	if h == l {
		t.Fatal("corners have no effect — PVT modelling broken")
	}
}

func TestChargePumpFOMFormula(t *testing.T) {
	cp := NewChargePump()
	r := cp.Simulate(tunedChargePump(), problem.Low)
	want := 0.3*(r.MaxDiff1+r.MaxDiff2+r.MaxDiff3+r.MaxDiff4) + 0.5*r.Deviation
	if math.Abs(r.FOM-want) > 1e-12 {
		t.Fatalf("FOM %v does not match eq. 16 (%v)", r.FOM, want)
	}
}

func TestChargePumpConstraintPacking(t *testing.T) {
	cp := NewChargePump()
	x := tunedChargePump()
	r := cp.Simulate(x, problem.High)
	e := cp.Evaluate(x, problem.High)
	wants := []float64{r.MaxDiff1 - 20, r.MaxDiff2 - 20, r.MaxDiff3 - 5, r.MaxDiff4 - 5, r.Deviation - 5}
	for i, w := range wants {
		if math.Abs(e.Constraints[i]-w) > 1e-12 {
			t.Fatalf("constraint %d packed wrong: %v vs %v", i, e.Constraints[i], w)
		}
	}
	if e.Objective != r.FOM {
		t.Fatal("objective must be the FOM")
	}
}

func TestChargePumpNetlistPrints(t *testing.T) {
	cp := NewChargePump()
	ckt := cp.Netlist(tunedChargePump(), NominalCorner(), true, false, 0.9)
	s := ckt.String()
	for _, dev := range []string{"M1", "M2", "MSW_UP", "MSW_DN", "MN_DIODE"} {
		if !strings.Contains(s, dev) {
			t.Fatalf("netlist missing %s:\n%s", dev, s)
		}
	}
}

func TestCornerParameterShifts(t *testing.T) {
	nom := deviceParams(NominalCorner(), 0, 10, 0.1)
	ss := deviceParams(Corner{Process: "SS", VddFrac: 1, TempC: 27}, 0, 10, 0.1)
	ff := deviceParams(Corner{Process: "FF", VddFrac: 1, TempC: 27}, 0, 10, 0.1)
	hot := deviceParams(Corner{Process: "TT", VddFrac: 1, TempC: 125}, 0, 10, 0.1)
	if !(ss.VTH > nom.VTH && ff.VTH < nom.VTH) {
		t.Fatal("process corner VTH shifts wrong")
	}
	if !(ss.KP < nom.KP && ff.KP > nom.KP) {
		t.Fatal("process corner KP shifts wrong")
	}
	if !(hot.KP < nom.KP && hot.VTH < nom.VTH) {
		t.Fatal("temperature effects wrong")
	}
}

func TestChargePumpDeterministic(t *testing.T) {
	cp := NewChargePump()
	x := tunedChargePump()
	if cp.Simulate(x, problem.Low) != cp.Simulate(x, problem.Low) {
		t.Fatal("simulation not deterministic")
	}
}
