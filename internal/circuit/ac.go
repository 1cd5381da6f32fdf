package circuit

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/linalg"
)

// ACAsm is the complex MNA assembly workspace for small-signal analysis at
// one angular frequency, built around the linearized DC operating point.
type ACAsm struct {
	N, M  int
	A     *linalg.CMatrix
	B     []complex128
	Omega float64   // 2πf
	OP    []float64 // converged DC operating point
}

func (a *ACAsm) addA(i, j int, v complex128) {
	if i < 0 || j < 0 {
		return
	}
	a.A.Add(i, j, v)
}

func (a *ACAsm) addB(i int, v complex128) {
	if i < 0 {
		return
	}
	a.B[i] += v
}

func (a *ACAsm) stampAdmittance(i, j int, y complex128) {
	a.addA(i, i, y)
	a.addA(j, j, y)
	a.addA(i, j, -y)
	a.addA(j, i, -y)
}

// acStamper is implemented by devices that participate in small-signal
// analysis. Every built-in device implements it.
type acStamper interface {
	StampAC(a *ACAsm)
}

// StampAC implements acStamper for Resistor.
func (r *Resistor) StampAC(a *ACAsm) { a.stampAdmittance(r.a, r.b, complex(r.G, 0)) }

// StampAC implements acStamper for Capacitor: admittance jωC.
func (d *Capacitor) StampAC(a *ACAsm) {
	a.stampAdmittance(d.a, d.b, complex(0, a.Omega*d.C))
}

// StampAC implements acStamper for Inductor: branch equation V = jωL·I.
func (d *Inductor) StampAC(a *ACAsm) {
	br := d.branch
	a.addA(d.a, br, 1)
	a.addA(d.b, br, -1)
	a.addA(br, d.a, 1)
	a.addA(br, d.b, -1)
	a.addA(br, br, complex(0, -a.Omega*d.L))
}

// StampAC implements acStamper for VSource: the branch forces the AC
// magnitude (zero for pure DC sources, which are AC grounds).
func (d *VSource) StampAC(a *ACAsm) {
	br := d.branch
	a.addA(d.a, br, 1)
	a.addA(d.b, br, -1)
	a.addA(br, d.a, 1)
	a.addA(br, d.b, -1)
	a.addB(br, d.acValue())
}

// StampAC implements acStamper for ISource: current sources carry no AC
// stimulus, so they are AC opens.
func (d *ISource) StampAC(*ACAsm) {}

// StampAC implements acStamper for MOSFET: gm/gds linearization at the
// operating point (quasi-static, no capacitances — add explicit C devices
// for frequency-dependent transistor behaviour).
func (m *MOSFET) StampAC(a *ACAsm) {
	vd, vg, vs := nodeVoltage(a.OP, m.d), nodeVoltage(a.OP, m.g), nodeVoltage(a.OP, m.s)
	_, gd, gg, gs := m.operating(vd, vg, vs)
	a.addA(m.d, m.d, complex(gd, 0))
	a.addA(m.d, m.g, complex(gg, 0))
	a.addA(m.d, m.s, complex(gs, 0))
	a.addA(m.s, m.d, complex(-gd, 0))
	a.addA(m.s, m.g, complex(-gg, 0))
	a.addA(m.s, m.s, complex(-gs, 0))
}

// acSource carries an AC stimulus amplitude/phase on an independent source.
type acSource struct {
	mag      float64
	phaseDeg float64
}

func (s acSource) value() complex128 {
	if s.mag == 0 {
		return 0
	}
	return cmplx.Rect(s.mag, s.phaseDeg*math.Pi/180)
}

// SetAC marks the voltage source as an AC stimulus with the given magnitude
// and phase (degrees). Returns the source for chaining.
func (d *VSource) SetAC(mag, phaseDeg float64) *VSource {
	d.ac = acSource{mag: mag, phaseDeg: phaseDeg}
	return d
}

func (d *VSource) acValue() complex128 { return d.ac.value() }

// ACResult holds a small-signal frequency sweep: complex node voltages and
// branch currents per frequency point.
type ACResult struct {
	sim   *Sim
	Freqs []float64
	Data  [][]complex128 // Data[k] is the phasor solution at Freqs[k]
}

// V returns the complex voltage of a named node at sweep index k.
func (r *ACResult) V(node string, k int) complex128 {
	idx, ok := r.sim.ckt.nodes[node]
	if !ok {
		panic(fmt.Sprintf("circuit: unknown node %q", node))
	}
	if idx < 0 {
		return 0
	}
	return r.Data[k][idx]
}

// PhaseDeg returns the phase of V(node) at sweep index k in degrees.
func (r *ACResult) PhaseDeg(node string, k int) float64 {
	return cmplx.Phase(r.V(node, k)) * 180 / math.Pi
}

// AC runs a small-signal sweep over the given frequencies: it solves the DC
// operating point, linearizes every device around it, and solves the complex
// MNA system per frequency.
func (s *Sim) AC(freqs []float64) (*ACResult, error) {
	op, err := s.DC()
	if err != nil {
		return nil, fmt.Errorf("circuit: AC operating point: %w", err)
	}
	size := s.Size()
	res := &ACResult{sim: s, Freqs: append([]float64(nil), freqs...)}
	for _, f := range freqs {
		asm := &ACAsm{
			N: s.n, M: s.m,
			A:     linalg.NewCMatrix(size, size),
			B:     make([]complex128, size),
			Omega: 2 * math.Pi * f,
			OP:    op.X,
		}
		for _, d := range s.ckt.Devices() {
			st, ok := d.(acStamper)
			if !ok {
				return nil, fmt.Errorf("circuit: device %s does not support AC analysis", d.DeviceName())
			}
			st.StampAC(asm)
		}
		x, err := linalg.SolveComplex(asm.A, asm.B)
		if err != nil {
			return nil, fmt.Errorf("circuit: AC solve at %g Hz: %w", f, err)
		}
		res.Data = append(res.Data, x)
	}
	return res, nil
}

// LogSpace returns n logarithmically spaced frequencies from f0 to f1
// inclusive — the standard grid for AC sweeps.
func LogSpace(f0, f1 float64, n int) []float64 {
	if n < 2 || f0 <= 0 || f1 <= f0 {
		panic(fmt.Sprintf("circuit: bad log space [%g, %g] n=%d", f0, f1, n))
	}
	out := make([]float64, n)
	l0, l1 := math.Log10(f0), math.Log10(f1)
	for i := range out {
		out[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	return out
}
