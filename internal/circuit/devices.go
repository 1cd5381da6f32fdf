package circuit

import "fmt"

// Asm is the MNA assembly workspace for one Newton iteration. Unknowns are
// ordered [node voltages (N), branch currents (M)]; ground is index −1 and
// is skipped by the stamping helpers.
type Asm struct {
	N, M int
	A    [][]float64 // (N+M)×(N+M) dense rows
	B    []float64
	X    []float64 // current Newton guess
	Time float64
	Dt   float64 // 0 during DC analysis
	Gmin float64 // convergence-aid conductance
}

// v returns the guessed voltage of a node index (0 for ground).
func (a *Asm) v(node int) float64 {
	if node < 0 {
		return 0
	}
	return a.X[node]
}

// addA accumulates into the MNA matrix, skipping ground rows/columns.
func (a *Asm) addA(i, j int, v float64) {
	if i < 0 || j < 0 {
		return
	}
	a.A[i][j] += v
}

// addB accumulates into the right-hand side, skipping ground.
func (a *Asm) addB(i int, v float64) {
	if i < 0 {
		return
	}
	a.B[i] += v
}

// stampConductance stamps a two-terminal conductance between nodes i and j.
func (a *Asm) stampConductance(i, j int, g float64) {
	a.addA(i, i, g)
	a.addA(j, j, g)
	a.addA(i, j, -g)
	a.addA(j, i, -g)
}

// stampCurrent stamps a current of cur amps flowing from node i to node j
// through a source (leaving i, entering j).
func (a *Asm) stampCurrent(i, j int, cur float64) {
	a.addB(i, -cur)
	a.addB(j, cur)
}

// Device is a netlist element that stamps itself into the MNA system.
type Device interface {
	// DeviceName returns the unique instance name.
	DeviceName() string
	// Describe renders a netlist line.
	Describe(c *Circuit) string
	// Stamp adds the device's contribution at the current guess a.X.
	Stamp(a *Asm)
}

// branchDevice is implemented by devices that own MNA branch-current
// unknowns (voltage sources, inductors).
type branchDevice interface {
	numBranches() int
	setBranchBase(base int)
}

// statefulDevice is implemented by devices with integration state
// (capacitors, inductors).
type statefulDevice interface {
	// initState seeds the state from a converged DC solution.
	initState(x []float64)
	// updateState advances the state after an accepted transient step.
	updateState(x []float64, dt float64)
}

// Resistor is a linear conductance.
type Resistor struct {
	name string
	a, b int
	G    float64
}

// DeviceName implements Device.
func (r *Resistor) DeviceName() string { return r.name }

// Describe implements Device.
func (r *Resistor) Describe(c *Circuit) string {
	return fmt.Sprintf("R %-8s %-6s %-6s %.6g", r.name, c.nodeName(r.a), c.nodeName(r.b), 1/r.G)
}

// Stamp implements Device.
func (r *Resistor) Stamp(a *Asm) { a.stampConductance(r.a, r.b, r.G) }

// Current returns the current a→b through the resistor at solution x.
func (r *Resistor) Current(x []float64) float64 {
	va, vb := nodeVoltage(x, r.a), nodeVoltage(x, r.b)
	return (va - vb) * r.G
}

// Capacitor integrates with the trapezoidal companion model; it is an open
// circuit (gmin leak) in DC.
type Capacitor struct {
	name  string
	a, b  int
	C     float64
	vPrev float64 // v(a)−v(b) at the previous accepted step
	iPrev float64 // current a→b at the previous accepted step
}

// DeviceName implements Device.
func (d *Capacitor) DeviceName() string { return d.name }

// Describe implements Device.
func (d *Capacitor) Describe(c *Circuit) string {
	return fmt.Sprintf("C %-8s %-6s %-6s %.6g", d.name, c.nodeName(d.a), c.nodeName(d.b), d.C)
}

// Stamp implements Device.
func (d *Capacitor) Stamp(a *Asm) {
	if a.Dt == 0 {
		a.stampConductance(d.a, d.b, a.Gmin)
		return
	}
	geq := 2 * d.C / a.Dt
	ieq := geq*d.vPrev + d.iPrev
	a.stampConductance(d.a, d.b, geq)
	// The −ieq term of i = geq·v − ieq is a source pushing current b→a.
	a.stampCurrent(d.b, d.a, ieq)
}

func (d *Capacitor) initState(x []float64) {
	d.vPrev = nodeVoltage(x, d.a) - nodeVoltage(x, d.b)
	d.iPrev = 0
}

func (d *Capacitor) updateState(x []float64, dt float64) {
	v := nodeVoltage(x, d.a) - nodeVoltage(x, d.b)
	geq := 2 * d.C / dt
	i := geq*v - (geq*d.vPrev + d.iPrev)
	d.vPrev, d.iPrev = v, i
}

// Inductor carries a branch-current unknown; it is a short in DC.
type Inductor struct {
	name   string
	a, b   int
	L      float64
	branch int
	vPrev  float64
	iPrev  float64
}

// DeviceName implements Device.
func (d *Inductor) DeviceName() string { return d.name }

// Describe implements Device.
func (d *Inductor) Describe(c *Circuit) string {
	return fmt.Sprintf("L %-8s %-6s %-6s %.6g", d.name, c.nodeName(d.a), c.nodeName(d.b), d.L)
}

func (d *Inductor) numBranches() int       { return 1 }
func (d *Inductor) setBranchBase(base int) { d.branch = base }

// Stamp implements Device.
func (d *Inductor) Stamp(a *Asm) {
	br := d.branch
	// KCL: branch current leaves a, enters b.
	a.addA(d.a, br, 1)
	a.addA(d.b, br, -1)
	if a.Dt == 0 {
		// DC short: v(a) − v(b) = 0.
		a.addA(br, d.a, 1)
		a.addA(br, d.b, -1)
		return
	}
	// Trapezoidal: i_{n+1} − (dt/2L)·v_{n+1} = i_n + (dt/2L)·v_n.
	k := a.Dt / (2 * d.L)
	a.addA(br, br, 1)
	a.addA(br, d.a, -k)
	a.addA(br, d.b, k)
	a.addB(br, d.iPrev+k*d.vPrev)
}

func (d *Inductor) initState(x []float64) {
	d.vPrev = 0 // DC: short
	d.iPrev = x[d.branch]
}

func (d *Inductor) updateState(x []float64, dt float64) {
	d.vPrev = nodeVoltage(x, d.a) - nodeVoltage(x, d.b)
	d.iPrev = x[d.branch]
}

// Current returns the inductor branch current at solution x.
func (d *Inductor) Current(x []float64) float64 { return x[d.branch] }

// VSource is an independent voltage source with a branch-current unknown.
type VSource struct {
	name   string
	a, b   int
	W      Waveform
	branch int
}

// DeviceName implements Device.
func (d *VSource) DeviceName() string { return d.name }

// Describe implements Device.
func (d *VSource) Describe(c *Circuit) string {
	return fmt.Sprintf("V %-8s %-6s %-6s %.6g", d.name, c.nodeName(d.a), c.nodeName(d.b), d.W.At(0))
}

func (d *VSource) numBranches() int       { return 1 }
func (d *VSource) setBranchBase(base int) { d.branch = base }

// Stamp implements Device.
func (d *VSource) Stamp(a *Asm) {
	br := d.branch
	a.addA(d.a, br, 1)
	a.addA(d.b, br, -1)
	a.addA(br, d.a, 1)
	a.addA(br, d.b, -1)
	a.addB(br, d.W.At(a.Time))
}

// Current returns the source branch current (flowing a→b internally) at
// solution x; the power delivered by the source is −V·I with this sign
// convention.
func (d *VSource) Current(x []float64) float64 { return x[d.branch] }

// ISource is an independent current source pushing W(t) amps a→b.
type ISource struct {
	name string
	a, b int
	W    Waveform
}

// DeviceName implements Device.
func (d *ISource) DeviceName() string { return d.name }

// Describe implements Device.
func (d *ISource) Describe(c *Circuit) string {
	return fmt.Sprintf("I %-8s %-6s %-6s %.6g", d.name, c.nodeName(d.a), c.nodeName(d.b), d.W.At(0))
}

// Stamp implements Device.
func (d *ISource) Stamp(a *Asm) { a.stampCurrent(d.a, d.b, d.W.At(a.Time)) }

// nodeVoltage reads a node voltage from a solution vector (0 for ground).
func nodeVoltage(x []float64, node int) float64 {
	if node < 0 {
		return 0
	}
	return x[node]
}
