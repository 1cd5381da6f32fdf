package circuit

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestACRCLowPass(t *testing.T) {
	// First-order RC low-pass: |H| = 1/√(1+(f/fc)²), phase = −atan(f/fc).
	R, C := 1e3, 1e-9
	fc := 1 / (2 * math.Pi * R * C)
	c := New()
	c.AddVSource("VIN", "in", Ground, DC(0)).SetAC(1, 0)
	c.AddResistor("R1", "in", "out", R)
	c.AddCapacitor("C1", "out", Ground, C)
	freqs := []float64{fc / 100, fc / 10, fc, 10 * fc, 100 * fc}
	res, err := NewSim(c).AC(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range freqs {
		wantMag := 1 / math.Sqrt(1+(f/fc)*(f/fc))
		wantPh := -math.Atan(f/fc) * 180 / math.Pi
		got := res.V("out", k)
		if math.Abs(cmplx.Abs(got)-wantMag) > 1e-9 {
			t.Fatalf("f=%g: |H| = %v, want %v", f, cmplx.Abs(got), wantMag)
		}
		if math.Abs(res.PhaseDeg("out", k)-wantPh) > 1e-6 {
			t.Fatalf("f=%g: phase = %v, want %v", f, res.PhaseDeg("out", k), wantPh)
		}
	}
	// −3 dB at the corner.
	if db := 20 * math.Log10(cmplx.Abs(res.V("out", 2))); math.Abs(db-(-3.0103)) > 1e-3 {
		t.Fatalf("corner gain %v dB, want -3.01", db)
	}
}

func TestACRLHighPass(t *testing.T) {
	// RL high-pass: V_L/V_in = jωL/(R + jωL), corner at R/(2πL).
	R, L := 1e3, 1e-3
	fc := R / (2 * math.Pi * L)
	c := New()
	c.AddVSource("VIN", "in", Ground, DC(0)).SetAC(1, 0)
	c.AddResistor("R1", "in", "out", R)
	c.AddInductor("L1", "out", Ground, L)
	res, err := NewSim(c).AC([]float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := cmplx.Abs(res.V("out", 0)); got > 0.02 {
		t.Fatalf("low-frequency leak %v", got)
	}
	if got := cmplx.Abs(res.V("out", 1)); math.Abs(got-1/math.Sqrt2) > 1e-6 {
		t.Fatalf("corner |H| = %v, want 0.707", got)
	}
	if got := cmplx.Abs(res.V("out", 2)); math.Abs(got-1) > 1e-3 {
		t.Fatalf("high-frequency |H| = %v, want 1", got)
	}
}

func TestACSeriesRLCResonance(t *testing.T) {
	// At resonance the LC reactances cancel: full input appears across R.
	R, L, C := 10.0, 1e-6, 1e-9
	f0 := 1 / (2 * math.Pi * math.Sqrt(L*C))
	c := New()
	c.AddVSource("VIN", "in", Ground, DC(0)).SetAC(1, 0)
	c.AddInductor("L1", "in", "a", L)
	c.AddCapacitor("C1", "a", "b", C)
	c.AddResistor("R1", "b", Ground, R)
	res, err := NewSim(c).AC([]float64{f0})
	if err != nil {
		t.Fatal(err)
	}
	if got := cmplx.Abs(res.V("b", 0)); math.Abs(got-1) > 1e-6 {
		t.Fatalf("resonance |V_R| = %v, want 1", got)
	}
}

func TestACCommonSourceGain(t *testing.T) {
	// Common-source amplifier small-signal gain ≈ −gm·(RD ∥ ro) at low
	// frequency. Compare the AC result against gm/gds from the OP.
	c := New()
	c.AddVSource("VDD", "vdd", Ground, DC(1.8))
	c.AddVSource("VG", "g", Ground, DC(0.9)).SetAC(1, 0)
	c.AddResistor("RD", "vdd", "d", 2e3)
	m := c.AddMOSFET("M1", "d", "g", Ground, MOSParams{W: 5e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0.05})
	sim := NewSim(c)
	op, err := sim.DC()
	if err != nil {
		t.Fatal(err)
	}
	_, gds, gm, _ := m.operating(op.X[sim.ckt.nodes["d"]], op.X[sim.ckt.nodes["g"]], 0)
	res, err := sim.AC([]float64{1}) // quasi-static: frequency irrelevant
	if err != nil {
		t.Fatal(err)
	}
	gain := res.V("d", 0)
	want := -gm / (1/2e3 + gds)
	if math.Abs(real(gain)-want) > 1e-6*math.Abs(want) || math.Abs(imag(gain)) > 1e-9 {
		t.Fatalf("CS gain = %v, want %v", gain, want)
	}
}

func TestACMillerPole(t *testing.T) {
	// Adding a large load capacitor to the CS stage creates a dominant pole
	// at 1/(2π·Rout·CL): check the −3 dB rolloff location.
	c := New()
	c.AddVSource("VDD", "vdd", Ground, DC(1.8))
	c.AddVSource("VG", "g", Ground, DC(0.9)).SetAC(1, 0)
	c.AddResistor("RD", "vdd", "d", 2e3)
	c.AddMOSFET("M1", "d", "g", Ground, MOSParams{W: 5e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0.05})
	cl := 1e-9
	c.AddCapacitor("CL", "d", Ground, cl)
	sim := NewSim(c)
	res, err := sim.AC([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	dc := cmplx.Abs(res.V("d", 0))
	// Find Rout from the -3dB point prediction: sweep and locate.
	// Rout = RD ∥ ro; pole fp = 1/(2π Rout CL).
	freqs := LogSpace(1e3, 1e9, 121)
	res, err = sim.AC(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var fp float64
	for k, f := range freqs {
		if cmplx.Abs(res.V("d", k)) < dc/math.Sqrt2 {
			fp = f
			break
		}
	}
	if fp == 0 {
		t.Fatal("no -3dB point found")
	}
	// Analytic pole using OP conductances.
	op, _ := sim.DC()
	m := c.Device("M1").(*MOSFET)
	_, gds, _, _ := m.operating(op.X[sim.ckt.nodes["d"]], op.X[sim.ckt.nodes["g"]], 0)
	rout := 1 / (1/2e3 + gds)
	want := 1 / (2 * math.Pi * rout * cl)
	if fp < want/1.3 || fp > want*1.3 {
		t.Fatalf("dominant pole at %g, want ≈ %g", fp, want)
	}
}

func TestACPhaseOfStimulus(t *testing.T) {
	// A 90° stimulus phase must propagate to the output.
	c := New()
	c.AddVSource("VIN", "in", Ground, DC(0)).SetAC(2, 90)
	c.AddResistor("R1", "in", "out", 1)
	c.AddResistor("R2", "out", Ground, 1)
	res, err := NewSim(c).AC([]float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	v := res.V("out", 0)
	if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
		t.Fatalf("|V| = %v, want 1", cmplx.Abs(v))
	}
	if math.Abs(res.PhaseDeg("out", 0)-90) > 1e-9 {
		t.Fatalf("phase = %v, want 90", res.PhaseDeg("out", 0))
	}
}

func TestLogSpace(t *testing.T) {
	f := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-9*want[i] {
			t.Fatalf("LogSpace = %v", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad range")
		}
	}()
	LogSpace(10, 1, 5)
}
