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
