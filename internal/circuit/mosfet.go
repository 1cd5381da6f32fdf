package circuit

import "fmt"

// MOSType selects the channel polarity.
type MOSType int

const (
	// NMOS is an n-channel device.
	NMOS MOSType = iota
	// PMOS is a p-channel device.
	PMOS
)

// MOSParams are level-1 (square-law) MOSFET model parameters. The bulk is
// tied to the source; body effect is not modelled.
type MOSParams struct {
	Type   MOSType
	W, L   float64 // channel width/length in metres (defaults 1µ / 0.1µ)
	VTH    float64 // threshold voltage magnitude (default 0.4 V)
	KP     float64 // transconductance parameter µ·Cox (default 200 µA/V²)
	Lambda float64 // channel-length modulation (default 0.05 /V)
}

func (p *MOSParams) defaults() {
	if p.W <= 0 {
		p.W = 1e-6
	}
	if p.L <= 0 {
		p.L = 1e-7
	}
	if p.VTH == 0 {
		p.VTH = 0.4
	}
	if p.KP <= 0 {
		p.KP = 200e-6
	}
	if p.Lambda < 0 {
		p.Lambda = 0
	}
}

// MOSFET is a level-1 square-law transistor.
type MOSFET struct {
	name    string
	d, g, s int
	P       MOSParams
}

// DeviceName implements Device.
func (m *MOSFET) DeviceName() string { return m.name }

// Describe implements Device.
func (m *MOSFET) Describe(c *Circuit) string {
	t := "NMOS"
	if m.P.Type == PMOS {
		t = "PMOS"
	}
	return fmt.Sprintf("M %-8s %-6s %-6s %-6s %s W=%.3g L=%.3g VTH=%.3g KP=%.3g LAMBDA=%.3g",
		m.name, c.nodeName(m.d), c.nodeName(m.g), c.nodeName(m.s), t,
		m.P.W, m.P.L, m.P.VTH, m.P.KP, m.P.Lambda)
}

// canonical evaluates the square-law NMOS equations for vgs, vds ≥ 0 in
// canonical polarity, returning the drain current and its partials.
func (m *MOSFET) canonical(vgs, vds float64) (id, gm, gds float64) {
	k := m.P.KP * m.P.W / m.P.L
	vgst := vgs - m.P.VTH
	if vgst <= 0 {
		return 0, 0, 0
	}
	lam := m.P.Lambda
	clm := 1 + lam*vds
	if vds >= vgst {
		// Saturation.
		id = 0.5 * k * vgst * vgst * clm
		gm = k * vgst * clm
		gds = 0.5 * k * vgst * vgst * lam
		return id, gm, gds
	}
	// Triode.
	core := vgst*vds - 0.5*vds*vds
	id = k * core * clm
	gm = k * vds * clm
	gds = k*(vgst-vds)*clm + k*core*lam
	return id, gm, gds
}

// operating evaluates the device at terminal voltages (vd, vg, vs) in real
// polarity, returning the drain current (flowing d→s for NMOS, s→d sign-
// flipped for PMOS) and the partial derivatives of that current with respect
// to the three terminal voltages.
func (m *MOSFET) operating(vd, vg, vs float64) (id, dIdVd, dIdVg, dIdVs float64) {
	sign := 1.0
	if m.P.Type == PMOS {
		sign = -1
	}
	// Map to primed space where the device is an NMOS.
	vdp, vgp, vsp := sign*vd, sign*vg, sign*vs
	if vdp >= vsp {
		// Normal mode.
		idc, gm, gds := m.canonical(vgp-vsp, vdp-vsp)
		// id' partials in primed space.
		dd := gds
		dg := gm
		ds := -gm - gds
		return sign * idc, dd, dg, ds
	}
	// Inverted mode: canonical source is the real drain terminal.
	idc, gm, gds := m.canonical(vgp-vdp, vsp-vdp)
	// id' = −idc(vgp−vdp, vsp−vdp).
	dd := gm + gds
	dg := -gm
	ds := -gds
	return sign * -idc, dd, dg, ds
}

// Stamp implements Device (Newton linearization of the drain current).
func (m *MOSFET) Stamp(a *Asm) {
	vd, vg, vs := a.v(m.d), a.v(m.g), a.v(m.s)
	id, gd, gg, gs := m.operating(vd, vg, vs)
	// Convergence-aid leak between drain and source.
	a.stampConductance(m.d, m.s, a.Gmin)
	// Linearized current from drain to source:
	// i ≈ id + gd·Δvd + gg·Δvg + gs·Δvs.
	a.addA(m.d, m.d, gd)
	a.addA(m.d, m.g, gg)
	a.addA(m.d, m.s, gs)
	a.addA(m.s, m.d, -gd)
	a.addA(m.s, m.g, -gg)
	a.addA(m.s, m.s, -gs)
	ieq := id - gd*vd - gg*vg - gs*vs
	a.stampCurrent(m.d, m.s, ieq)
}

// Current returns the drain current (d→s, sign-carrying) at solution x.
func (m *MOSFET) Current(x []float64) float64 {
	id, _, _, _ := m.operating(nodeVoltage(x, m.d), nodeVoltage(x, m.g), nodeVoltage(x, m.s))
	return id
}
