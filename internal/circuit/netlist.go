// Package circuit implements a compact SPICE-like analog circuit simulator:
// netlists of resistors, capacitors, inductors, square-law (level-1) MOSFETs
// and independent sources; DC operating-point analysis by Newton–Raphson
// iteration on the modified nodal analysis (MNA) equations with gmin
// stepping; and fixed-step trapezoidal transient analysis with companion
// models. A small measurement toolkit (Goertzel harmonics, THD, mean,
// extrema) turns waveforms into the circuit metrics the testbenches report.
//
// The simulator exists to stand in for the commercial transistor-level
// simulator used in the paper's experiments: the optimizer only ever sees
// (design vector → performance metrics) black boxes, and this package makes
// those black boxes physically plausible — including the systematic
// low-/high-fidelity discrepancies that multi-fidelity modelling exploits.
package circuit

import (
	"fmt"
	"sort"
)

// Ground is the reference node name; its voltage is fixed at zero.
const Ground = "0"

// Circuit is a netlist under construction. Node names are arbitrary strings;
// "0" is ground.
type Circuit struct {
	nodes   map[string]int // name → index (ground = -1)
	names   []string       // index → name
	devices []Device
	byName  map[string]Device
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodes:  map[string]int{Ground: -1},
		byName: map[string]Device{},
	}
}

// node interns a node name and returns its MNA index (-1 for ground).
func (c *Circuit) node(name string) int {
	if idx, ok := c.nodes[name]; ok {
		return idx
	}
	idx := len(c.names)
	c.nodes[name] = idx
	c.names = append(c.names, name)
	return idx
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.names) }

// Devices returns the devices in insertion order.
func (c *Circuit) Devices() []Device { return c.devices }

// Device looks a device up by name (nil if absent).
func (c *Circuit) Device(name string) Device { return c.byName[name] }

func (c *Circuit) addDevice(d Device) {
	name := d.DeviceName()
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("circuit: duplicate device name %q", name))
	}
	c.byName[name] = d
	c.devices = append(c.devices, d)
}

// AddResistor adds a linear resistor between nodes a and b.
func (c *Circuit) AddResistor(name, a, b string, ohms float64) *Resistor {
	if ohms <= 0 {
		panic(fmt.Sprintf("circuit: resistor %s value %v must be positive", name, ohms))
	}
	r := &Resistor{name: name, a: c.node(a), b: c.node(b), G: 1 / ohms}
	c.addDevice(r)
	return r
}

// AddCapacitor adds a linear capacitor between nodes a and b.
func (c *Circuit) AddCapacitor(name, a, b string, farads float64) *Capacitor {
	if farads <= 0 {
		panic(fmt.Sprintf("circuit: capacitor %s value %v must be positive", name, farads))
	}
	d := &Capacitor{name: name, a: c.node(a), b: c.node(b), C: farads}
	c.addDevice(d)
	return d
}

// AddInductor adds a linear inductor between nodes a and b. Inductors carry
// an MNA branch-current unknown (a DC short).
func (c *Circuit) AddInductor(name, a, b string, henries float64) *Inductor {
	if henries <= 0 {
		panic(fmt.Sprintf("circuit: inductor %s value %v must be positive", name, henries))
	}
	d := &Inductor{name: name, a: c.node(a), b: c.node(b), L: henries}
	c.addDevice(d)
	return d
}

// AddVSource adds an independent voltage source v(a) − v(b) = waveform(t),
// with an MNA branch-current unknown.
func (c *Circuit) AddVSource(name, a, b string, w Waveform) *VSource {
	if w == nil {
		panic(fmt.Sprintf("circuit: voltage source %s needs a waveform", name))
	}
	d := &VSource{name: name, a: c.node(a), b: c.node(b), W: w}
	c.addDevice(d)
	return d
}

// AddISource adds an independent current source pushing waveform(t) amps
// from node a into node b (current flows a→b through the source).
func (c *Circuit) AddISource(name, a, b string, w Waveform) *ISource {
	if w == nil {
		panic(fmt.Sprintf("circuit: current source %s needs a waveform", name))
	}
	d := &ISource{name: name, a: c.node(a), b: c.node(b), W: w}
	c.addDevice(d)
	return d
}

// AddMOSFET adds a level-1 MOSFET with nodes drain, gate, source (bulk is
// tied to source; body effect is not modelled).
func (c *Circuit) AddMOSFET(name, drain, gate, source string, p MOSParams) *MOSFET {
	p.defaults()
	d := &MOSFET{name: name, d: c.node(drain), g: c.node(gate), s: c.node(source), P: p}
	c.addDevice(d)
	return d
}

// String renders a human-readable netlist (used by cmd/figures for the
// charge-pump schematic listing).
func (c *Circuit) String() string {
	lines := make([]string, 0, len(c.devices))
	for _, d := range c.devices {
		lines = append(lines, d.Describe(c))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// nodeName renders an MNA node index for diagnostics.
func (c *Circuit) nodeName(idx int) string {
	if idx < 0 {
		return Ground
	}
	return c.names[idx]
}
