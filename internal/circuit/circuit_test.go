package circuit

import (
	"math"
	"strings"
	"testing"
)

func TestVoltageDividerDC(t *testing.T) {
	c := New()
	c.AddVSource("V1", "in", Ground, DC(10))
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddResistor("R2", "out", Ground, 3e3)
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sol.Voltage("out"); err != nil || math.Abs(got-7.5) > 1e-9 {
		t.Fatalf("divider out = %v (%v), want 7.5", got, err)
	}
	if got, err := sol.Voltage("in"); err != nil || math.Abs(got-10) > 1e-9 {
		t.Fatalf("source node = %v (%v), want 10", got, err)
	}
}

func TestSourceCurrentSign(t *testing.T) {
	// 10 V across 1 kΩ: 10 mA flows out of the + terminal through the
	// resistor; the branch current (a→b inside the source) is −10 mA.
	c := New()
	v := c.AddVSource("V1", "p", Ground, DC(10))
	c.AddResistor("R1", "p", Ground, 1e3)
	sim := NewSim(c)
	sol, err := sim.DC()
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Current(sol.X); math.Abs(got+0.01) > 1e-9 {
		t.Fatalf("source current = %v, want -0.01", got)
	}
}

func TestCurrentSourceDC(t *testing.T) {
	// 1 mA pushed into a 2 kΩ load → 2 V.
	c := New()
	c.AddISource("I1", Ground, "out", DC(1e-3))
	c.AddResistor("RL", "out", Ground, 2e3)
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sol.Voltage("out"); err != nil || math.Abs(got-2) > 1e-9 {
		t.Fatalf("out = %v (%v), want 2", got, err)
	}
}

func TestInductorIsDCShort(t *testing.T) {
	c := New()
	c.AddVSource("V1", "a", Ground, DC(5))
	c.AddResistor("R1", "a", "b", 1e3)
	c.AddInductor("L1", "b", "c", 1e-6)
	c.AddResistor("R2", "c", Ground, 1e3)
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	vb, errB := sol.Voltage("b")
	vc, errC := sol.Voltage("c")
	if errB != nil || errC != nil {
		t.Fatal(errB, errC)
	}
	if got := math.Abs(vb - vc); got > 1e-9 {
		t.Fatalf("inductor DC drop = %v, want 0", got)
	}
	if math.Abs(vc-2.5) > 1e-9 {
		t.Fatalf("c = %v, want 2.5", vc)
	}
}

func TestCapacitorIsDCOpen(t *testing.T) {
	c := New()
	c.AddVSource("V1", "a", Ground, DC(5))
	c.AddResistor("R1", "a", "b", 1e3)
	c.AddCapacitor("C1", "b", Ground, 1e-9)
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	// No DC path current → no drop across R1.
	if got, err := sol.Voltage("b"); err != nil || math.Abs(got-5) > 1e-6 {
		t.Fatalf("b = %v (%v), want 5", got, err)
	}
}

func TestNMOSSaturationCurrent(t *testing.T) {
	// Vgs = 1.0, VTH = 0.4, KP·W/L = 200µ·10 → Id = ½·2m·0.36 = 0.36 mA
	// (λ = 0).
	c := New()
	c.AddVSource("VD", "d", Ground, DC(1.8))
	c.AddVSource("VG", "g", Ground, DC(1.0))
	m := c.AddMOSFET("M1", "d", "g", Ground, MOSParams{W: 1e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0})
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 200e-6 * 10 * 0.6 * 0.6
	if got := m.Current(sol.X); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Id = %v, want %v", got, want)
	}
}

func TestNMOSTriodeRegion(t *testing.T) {
	// Vds = 0.1 < Vgst = 0.6 → triode.
	c := New()
	c.AddVSource("VD", "d", Ground, DC(0.1))
	c.AddVSource("VG", "g", Ground, DC(1.0))
	m := c.AddMOSFET("M1", "d", "g", Ground, MOSParams{W: 1e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0})
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	k := 200e-6 * 10.0
	want := k * (0.6*0.1 - 0.5*0.1*0.1)
	if got := m.Current(sol.X); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Id = %v, want %v", got, want)
	}
}

func TestNMOSCutoff(t *testing.T) {
	c := New()
	c.AddVSource("VD", "d", Ground, DC(1.8))
	c.AddVSource("VG", "g", Ground, DC(0.2))
	m := c.AddMOSFET("M1", "d", "g", Ground, MOSParams{VTH: 0.4, Lambda: 0})
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Current(sol.X); got != 0 {
		t.Fatalf("cutoff Id = %v, want 0", got)
	}
}

func TestPMOSMirrorsNMOS(t *testing.T) {
	// PMOS with source at VDD: Vsg = 1.0 → same magnitude as the NMOS case,
	// current flowing source→drain (negative d→s sign).
	c := New()
	c.AddVSource("VDD", "vdd", Ground, DC(1.8))
	c.AddVSource("VG", "g", Ground, DC(0.8)) // Vsg = 1.0
	c.AddResistor("RL", "d", Ground, 1)      // near-ground drain
	m := c.AddMOSFET("M1", "d", "g", "vdd", MOSParams{Type: PMOS, W: 1e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0})
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5 * 200e-6 * 10 * 0.6 * 0.6 // d→s current is negative for PMOS conduction
	if got := m.Current(sol.X); math.Abs(got-want) > 1e-6 {
		t.Fatalf("PMOS Id = %v, want %v", got, want)
	}
}

func TestMOSFETInvertedModeSymmetry(t *testing.T) {
	// Swapping drain and source voltages must flip the current sign
	// (the square-law device is symmetric).
	m := &MOSFET{P: MOSParams{W: 1e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0}}
	m.P.defaults()
	idFwd, _, _, _ := m.operating(1.0, 1.2, 0.2)
	idRev, _, _, _ := m.operating(0.2, 1.2, 1.0)
	if math.Abs(idFwd+idRev) > 1e-12 {
		t.Fatalf("symmetry violated: %v vs %v", idFwd, idRev)
	}
}

func TestMOSFETJacobianMatchesFD(t *testing.T) {
	m := &MOSFET{P: MOSParams{W: 2e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0.05}}
	m.P.defaults()
	const h = 1e-7
	for _, tv := range [][3]float64{
		{1.8, 1.0, 0},   // saturation
		{0.1, 1.0, 0},   // triode
		{1.8, 0.2, 0},   // cutoff
		{0.2, 1.2, 1.0}, // inverted
	} {
		vd, vg, vs := tv[0], tv[1], tv[2]
		_, gd, gg, gs := m.operating(vd, vg, vs)
		fd := func(dvd, dvg, dvs float64) float64 {
			up, _, _, _ := m.operating(vd+dvd*h, vg+dvg*h, vs+dvs*h)
			dn, _, _, _ := m.operating(vd-dvd*h, vg-dvg*h, vs-dvs*h)
			return (up - dn) / (2 * h)
		}
		if g := fd(1, 0, 0); math.Abs(g-gd) > 1e-4*(1+math.Abs(g)) {
			t.Fatalf("at %v: dId/dVd analytic %v vs fd %v", tv, gd, g)
		}
		if g := fd(0, 1, 0); math.Abs(g-gg) > 1e-4*(1+math.Abs(g)) {
			t.Fatalf("at %v: dId/dVg analytic %v vs fd %v", tv, gg, g)
		}
		if g := fd(0, 0, 1); math.Abs(g-gs) > 1e-4*(1+math.Abs(g)) {
			t.Fatalf("at %v: dId/dVs analytic %v vs fd %v", tv, gs, g)
		}
	}
}

func TestCommonSourceAmpBias(t *testing.T) {
	// Common-source stage: drain node must sit between rails and below VDD.
	c := New()
	c.AddVSource("VDD", "vdd", Ground, DC(1.8))
	c.AddVSource("VG", "g", Ground, DC(0.9))
	c.AddResistor("RD", "vdd", "d", 2e3)
	c.AddMOSFET("M1", "d", "g", Ground, MOSParams{W: 5e-6, L: 1e-7, VTH: 0.4, KP: 200e-6, Lambda: 0.05})
	sol, err := NewSim(c).DC()
	if err != nil {
		t.Fatal(err)
	}
	if vd, err := sol.Voltage("d"); err != nil || vd <= 0 || vd >= 1.8 {
		t.Fatalf("drain bias %v (%v) outside rails", vd, err)
	}
}

func TestRCTransientStep(t *testing.T) {
	// RC charging from 0 to 1 V: v(t) = 1 − exp(−t/RC).
	R, C := 1e3, 1e-9
	tau := R * C
	c := New()
	c.AddVSource("V1", "in", Ground, DC(1))
	c.AddResistor("R1", "in", "out", R)
	c.AddCapacitor("C1", "out", Ground, C)
	wf, err := NewSim(c).Transient(5*tau, tau/100)
	if err != nil {
		t.Fatal(err)
	}
	// With a DC source the operating point charges the capacitor before the
	// transient starts: the output must hold at 1 V throughout.
	out, err := wf.NodeVoltages("out")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if math.Abs(v-1) > 1e-6 {
			t.Fatalf("pre-charged RC drifted to %v at step %d", v, k)
		}
	}
	// To see the actual charging curve, drive with a pulse that steps 0→1
	// at t = 0⁺ instead.
	c2 := New()
	c2.AddVSource("V1", "in", Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1, Period: 2})
	c2.AddResistor("R1", "in", "out", R)
	c2.AddCapacitor("C1", "out", Ground, C)
	wf2, err := NewSim(c2).Transient(5*tau, tau/100)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := wf2.NodeVoltages("out")
	if err != nil {
		t.Fatal(err)
	}
	for k, tm := range wf2.Times {
		want := 1 - math.Exp(-tm/tau)
		if math.Abs(out2[k]-want) > 0.01 {
			t.Fatalf("RC step at t=%v: %v vs %v", tm, out2[k], want)
		}
	}
}

func TestLCOscillationFrequency(t *testing.T) {
	// Series RLC ringing: f0 = 1/(2π√(LC)); use light damping and check
	// the zero-crossing period of the inductor current.
	L, C := 1e-6, 1e-9
	f0 := 1 / (2 * math.Pi * math.Sqrt(L*C))
	c := New()
	c.AddVSource("V1", "in", Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1, Period: 2})
	c.AddResistor("R1", "in", "a", 5) // light damping
	c.AddInductor("L1", "a", "b", L)
	c.AddCapacitor("C1", "b", Ground, C)
	dt := 1 / (f0 * 400)
	wf, err := NewSim(c).Transient(4/f0, dt)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := wf.NodeVoltages("b")
	if err != nil {
		t.Fatal(err)
	}
	// Estimate dominant frequency via Goertzel scan around f0.
	bestF, bestA := 0.0, -1.0
	for _, f := range []float64{0.7 * f0, 0.85 * f0, f0, 1.15 * f0, 1.3 * f0} {
		a := HarmonicAmplitude(vb, dt, f, 1)
		if a > bestA {
			bestA, bestF = a, f
		}
	}
	if bestF != f0 {
		t.Fatalf("dominant ringing at %v, want %v", bestF, f0)
	}
}

func TestSineSteadyStateAmplitude(t *testing.T) {
	// RC low-pass driven by a sine: the settled output amplitude must match
	// the analytic gain |H(f)| = 1/√(1+(f/fc)²).
	R, C := 1e3, 1e-9
	fc := 1 / (2 * math.Pi * R * C)
	for _, tc := range []struct {
		name string
		f    float64
	}{
		{"corner", fc},
		{"below-corner", 0.7 * fc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			c.AddVSource("V1", "in", Ground, Sine{Amplitude: 1, Freq: tc.f})
			c.AddResistor("R1", "in", "out", R)
			c.AddCapacitor("C1", "out", Ground, C)
			period := 1 / tc.f
			dt := period / 200
			wf, err := NewSim(c).Transient(12*period, dt)
			if err != nil {
				t.Fatal(err)
			}
			// Measure over the last 4 periods (settled).
			start, end := wf.Window(8*period, 12*period)
			out, err := wf.NodeVoltages("out")
			if err != nil {
				t.Fatal(err)
			}
			amp := HarmonicAmplitude(out[start:end], dt, tc.f, 1)
			r := tc.f / fc
			want := 1 / math.Sqrt(1+r*r)
			if rel := math.Abs(amp-want) / want; rel > 0.01 {
				t.Fatalf("gain at f = %.2f·fc: %v, want %v (relative error %.2g)", r, amp, want, rel)
			}
		})
	}
}

func TestTransientEnergyConservationRC(t *testing.T) {
	// Discharging RC: energy dissipated in R equals initial cap energy.
	R, C := 1e3, 1e-9
	tau := R * C
	c := New()
	// Charge to 1 V for t<0 via pulse that drops to 0 at t=0⁺.
	c.AddVSource("V1", "in", Ground, Pulse{V1: 1, V2: 0, Rise: 1e-12, Width: 1, Period: 2})
	c.AddResistor("R1", "in", "out", R)
	c.AddCapacitor("C1", "out", Ground, C)
	dt := tau / 200
	wf, err := NewSim(c).Transient(8*tau, dt)
	if err != nil {
		t.Fatal(err)
	}
	vr, errIn := wf.NodeVoltages("in")
	vo, errOut := wf.NodeVoltages("out")
	if errIn != nil || errOut != nil {
		t.Fatal(errIn, errOut)
	}
	energy := 0.0
	for k := range vr {
		i := (vo[k] - vr[k]) / R // current out of cap through R
		energy += i * i * R * dt
	}
	want := 0.5 * C * 1 * 1
	if math.Abs(energy-want) > 0.05*want {
		t.Fatalf("dissipated %v J, want ≈ %v J", energy, want)
	}
}

func TestNetlistDescribeAndString(t *testing.T) {
	c := New()
	c.AddResistor("R1", "a", "b", 100)
	c.AddMOSFET("M1", "a", "b", Ground, MOSParams{})
	s := c.String()
	if !strings.Contains(s, "R1") || !strings.Contains(s, "M1") || !strings.Contains(s, "NMOS") {
		t.Fatalf("netlist listing missing entries:\n%s", s)
	}
}

func TestDuplicateDevicePanics(t *testing.T) {
	c := New()
	c.AddResistor("R1", "a", "b", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	c.AddResistor("R1", "b", "c", 100)
}

func TestBadComponentValuesPanic(t *testing.T) {
	for _, add := range []func(c *Circuit){
		func(c *Circuit) { c.AddResistor("X", "a", "b", 0) },
		func(c *Circuit) { c.AddCapacitor("X", "a", "b", -1) },
		func(c *Circuit) { c.AddInductor("X", "a", "b", 0) },
		func(c *Circuit) { c.AddVSource("X", "a", "b", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on invalid component")
				}
			}()
			add(New())
		}()
	}
}

func TestUnknownNodeErrors(t *testing.T) {
	c := New()
	c.AddVSource("V1", "a", Ground, DC(1))
	c.AddResistor("R1", "a", Ground, 1)
	sim := NewSim(c)
	sol, err := sim.DC()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.Voltage("nope"); err == nil {
		t.Fatal("DC accessor accepted an unknown node")
	}
	wf, err := sim.Transient(1e-6, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.NodeVoltages("nope"); err == nil {
		t.Fatal("transient accessor accepted an unknown node")
	}
	if _, err := wf.BranchCurrent("R1"); err == nil {
		t.Fatal("branch-current accessor accepted a resistor")
	}
}

// TestNewtonReusesBuffers: a transient allocates per accepted step only for
// the recorded sample, not per Newton iteration — the MNA matrix, right-hand
// side, LU factors and solution live on the Sim.
func TestNewtonReusesBuffers(t *testing.T) {
	c := New()
	c.AddVSource("V1", "in", Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1, Period: 2})
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddMOSFET("M1", "out", "out", "mid", MOSParams{}) // diode-connected: Newton iterates
	c.AddCapacitor("C1", "mid", Ground, 1e-9)
	const steps = 200
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewSim(c).Transient(5e-6, 5e-6/steps); err != nil {
			t.Fatal(err)
		}
	})
	if perStep := allocs / steps; perStep > 1.5 {
		t.Fatalf("transient allocates %.2f objects per step; want at most the recorded sample", perStep)
	}
}
