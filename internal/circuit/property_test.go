package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomResistiveNetwork builds a random connected resistor network with one
// source, exercising arbitrary topologies.
func randomResistiveNetwork(rng *rand.Rand, nNodes int) *Circuit {
	c := New()
	c.AddVSource("V1", "n1", Ground, DC(1+rng.Float64()*9))
	// Spanning chain keeps it connected.
	for i := 2; i <= nNodes; i++ {
		c.AddResistor(fmt.Sprintf("Rchain%d", i),
			fmt.Sprintf("n%d", i-1), fmt.Sprintf("n%d", i), 100+rng.Float64()*10e3)
	}
	c.AddResistor("Rgnd", fmt.Sprintf("n%d", nNodes), Ground, 100+rng.Float64()*10e3)
	// Random extra edges.
	for k := 0; k < nNodes; k++ {
		a := fmt.Sprintf("n%d", 1+rng.Intn(nNodes))
		b := fmt.Sprintf("n%d", 1+rng.Intn(nNodes))
		if a == b {
			b = Ground
		}
		c.AddResistor(fmt.Sprintf("Rx%d", k), a, b, 100+rng.Float64()*10e3)
	}
	return c
}

// TestKCLHoldsOnRandomNetworks checks Kirchhoff's current law at every
// non-source node of random resistive networks: resistor currents must sum
// to zero.
func TestKCLHoldsOnRandomNetworks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 3 + rng.Intn(6)
		c := randomResistiveNetwork(rng, nNodes)
		sim := NewSim(c)
		sol, err := sim.DC()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Sum resistor currents into each node (skip n1, which also
		// connects to the source branch).
		sums := map[string]float64{}
		for _, d := range c.Devices() {
			r, ok := d.(*Resistor)
			if !ok {
				continue
			}
			i := r.Current(sol.X)
			sums[c.nodeName(r.a)] -= i
			sums[c.nodeName(r.b)] += i
		}
		for node, s := range sums {
			if node == Ground || node == "n1" {
				continue
			}
			if math.Abs(s) > 1e-9 {
				t.Fatalf("seed %d: KCL violated at %s: residual %v", seed, node, s)
			}
		}
	}
}

// TestTellegenPowerBalance verifies energy conservation: total power
// delivered by sources equals total power dissipated in resistors.
func TestTellegenPowerBalance(t *testing.T) {
	for seed := int64(20); seed < 35; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomResistiveNetwork(rng, 4+rng.Intn(4))
		sim := NewSim(c)
		sol, err := sim.DC()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var pSrc, pDis float64
		for _, d := range c.Devices() {
			switch dev := d.(type) {
			case *VSource:
				v := nodeVoltage(sol.X, dev.a) - nodeVoltage(sol.X, dev.b)
				pSrc += -v * dev.Current(sol.X)
			case *Resistor:
				i := dev.Current(sol.X)
				pDis += i * i / dev.G
			}
		}
		if math.Abs(pSrc-pDis) > 1e-9*(1+pSrc) {
			t.Fatalf("seed %d: power balance violated: source %v vs dissipated %v", seed, pSrc, pDis)
		}
	}
}

// TestACTransientConsistency cross-validates AC analysis against transient
// simulation: a driven linear RC network's steady-state amplitude and phase
// must match the phasor solution.
func TestACTransientConsistency(t *testing.T) {
	R, C := 2e3, 0.5e-9
	f := 1 / (2 * math.Pi * R * C) * 0.7 // near but not at the corner
	build := func() *Circuit {
		c := New()
		c.AddVSource("VIN", "in", Ground, Sine{Amplitude: 1, Freq: f}).SetAC(1, 0)
		c.AddResistor("R1", "in", "out", R)
		c.AddCapacitor("C1", "out", Ground, C)
		return c
	}
	// Phasor solution.
	res, err := NewSim(build()).AC([]float64{f})
	if err != nil {
		t.Fatal(err)
	}
	wantMag := math.Hypot(real(res.V("out", 0)), imag(res.V("out", 0)))
	// Transient steady state.
	period := 1 / f
	dt := period / 256
	wf, err := NewSim(build()).Transient(14*period, dt)
	if err != nil {
		t.Fatal(err)
	}
	start, end := wf.Window(10*period, 14*period)
	out, err := wf.NodeVoltages("out")
	if err != nil {
		t.Fatal(err)
	}
	gotMag := HarmonicAmplitude(out[start:end], dt, f, 1)
	if math.Abs(gotMag-wantMag) > 0.01*wantMag {
		t.Fatalf("transient amplitude %v vs AC %v", gotMag, wantMag)
	}
}
