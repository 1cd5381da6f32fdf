package circuit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrNoConvergence is returned when Newton iteration fails at every gmin
// step.
var ErrNoConvergence = errors.New("circuit: Newton iteration did not converge")

// Sim is a simulation context bound to one circuit. It owns the unknown
// layout (node voltages followed by branch currents).
type Sim struct {
	ckt *Circuit
	n   int // node unknowns
	m   int // branch unknowns

	// Options.
	MaxNewton int     // Newton iterations per solve (default 100)
	VTol      float64 // voltage convergence tolerance (default 1e-9)
	MaxStep   float64 // Newton per-iteration voltage damping limit (default 0.6 V)

	// Newton scratch, allocated on first use and reused by every iteration
	// of every solve: the MNA matrix (and its row views), right-hand side,
	// LU factorization and solution. A Sim is not safe for concurrent use.
	mat       *linalg.Matrix
	rows      [][]float64
	rhs, xNew []float64
	lu        linalg.LU
	asm       Asm
}

// NewSim prepares a simulator for the circuit, assigning branch indices.
func NewSim(ckt *Circuit) *Sim {
	s := &Sim{ckt: ckt, n: ckt.NumNodes(), MaxNewton: 100, VTol: 1e-9, MaxStep: 0.6}
	base := s.n
	for _, d := range ckt.Devices() {
		if bd, ok := d.(branchDevice); ok {
			bd.setBranchBase(base)
			base += bd.numBranches()
		}
	}
	s.m = base - s.n
	return s
}

// Size returns the total number of MNA unknowns.
func (s *Sim) Size() int { return s.n + s.m }

// Solution is a solved operating point or transient sample.
type Solution struct {
	sim *Sim
	X   []float64
}

// Voltage returns the voltage of a named node, or an error when the node
// does not exist — the crash-safe accessor optimization workers must use
// (a bad measure name in a testbench must not kill the run).
func (sol *Solution) Voltage(node string) (float64, error) {
	idx, ok := sol.sim.ckt.nodes[node]
	if !ok {
		return 0, fmt.Errorf("circuit: unknown node %q", node)
	}
	return nodeVoltage(sol.X, idx), nil
}

// DC computes the DC operating point (sources evaluated at t = 0), using
// Newton iteration with gmin stepping as a fallback.
func (s *Sim) DC() (*Solution, error) {
	x := make([]float64, s.Size())
	// Plain attempt with tiny gmin first, then a gmin continuation.
	if err := s.newton(x, 0, 0, 1e-12); err == nil {
		return &Solution{sim: s, X: x}, nil
	}
	for i := range x {
		x[i] = 0
	}
	for _, gmin := range []float64{1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12} {
		if err := s.newton(x, 0, 0, gmin); err != nil {
			return nil, fmt.Errorf("circuit: gmin continuation failed at %g: %w", gmin, err)
		}
	}
	return &Solution{sim: s, X: x}, nil
}

// newton solves the MNA system at time t with timestep dt, refining x in
// place.
func (s *Sim) newton(x []float64, t, dt, gmin float64) error {
	size := s.Size()
	if s.mat == nil {
		s.mat = linalg.NewMatrix(size, size)
		s.rows = make([][]float64, size)
		for i := range s.rows {
			s.rows[i] = s.mat.Data[i*size : (i+1)*size]
		}
		s.rhs = make([]float64, size)
		s.xNew = make([]float64, size)
	}
	flat, b, xNew := s.mat.Data, s.rhs, s.xNew
	asm := &s.asm
	*asm = Asm{N: s.n, M: s.m, A: s.rows, B: b, X: x, Time: t, Dt: dt, Gmin: gmin}
	for iter := 0; iter < s.MaxNewton; iter++ {
		for i := range flat {
			flat[i] = 0
		}
		for i := range b {
			b[i] = 0
		}
		for _, d := range s.ckt.Devices() {
			d.Stamp(asm)
		}
		if err := s.lu.Factorize(s.mat); err != nil {
			return fmt.Errorf("circuit: singular MNA matrix: %w", err)
		}
		s.lu.SolveVecInto(b, xNew)
		// Damped update on node voltages; branch currents move freely.
		maxDelta := 0.0
		for i := 0; i < size; i++ {
			delta := xNew[i] - x[i]
			if i < s.n {
				if delta > s.MaxStep {
					delta = s.MaxStep
				} else if delta < -s.MaxStep {
					delta = -s.MaxStep
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
			}
			x[i] += delta
		}
		if math.IsNaN(maxDelta) {
			return ErrNoConvergence
		}
		if maxDelta < s.VTol {
			return nil
		}
	}
	return ErrNoConvergence
}

// Transient runs a fixed-step trapezoidal transient analysis from the DC
// operating point at t = 0 to tstop, recording every node voltage and branch
// current at each accepted step (including t = 0).
func (s *Sim) Transient(tstop, dt float64) (*Waveforms, error) {
	if dt <= 0 || tstop <= 0 {
		return nil, fmt.Errorf("circuit: bad transient window tstop=%g dt=%g", tstop, dt)
	}
	op, err := s.DC()
	if err != nil {
		return nil, fmt.Errorf("circuit: transient DC operating point: %w", err)
	}
	x := append([]float64(nil), op.X...)
	for _, d := range s.ckt.Devices() {
		if sd, ok := d.(statefulDevice); ok {
			sd.initState(x)
		}
	}
	steps := int(math.Ceil(tstop / dt))
	wf := &Waveforms{
		sim:   s,
		Times: make([]float64, 0, steps+1),
		Data:  make([][]float64, 0, steps+1),
	}
	wf.append(0, x)
	for k := 1; k <= steps; k++ {
		t := float64(k) * dt
		if err := s.newton(x, t, dt, 1e-12); err != nil {
			// Retry once from the previous point with extra gmin.
			copy(x, wf.Data[len(wf.Data)-1])
			if err2 := s.newton(x, t, dt, 1e-6); err2 != nil {
				return nil, fmt.Errorf("circuit: transient step %d (t=%g): %w", k, t, err)
			}
		}
		for _, d := range s.ckt.Devices() {
			if sd, ok := d.(statefulDevice); ok {
				sd.updateState(x, dt)
			}
		}
		wf.append(t, x)
	}
	return wf, nil
}

// Waveforms holds a transient result: one solution vector per time point.
type Waveforms struct {
	sim   *Sim
	Times []float64
	Data  [][]float64 // Data[k] is the solution at Times[k]
}

func (w *Waveforms) append(t float64, x []float64) {
	w.Times = append(w.Times, t)
	w.Data = append(w.Data, append([]float64(nil), x...))
}

// NodeVoltages returns the voltage waveform of a named node, or an error
// when the node does not exist — the crash-safe accessor for optimization
// workers.
func (w *Waveforms) NodeVoltages(name string) ([]float64, error) {
	idx, ok := w.sim.ckt.nodes[name]
	if !ok {
		return nil, fmt.Errorf("circuit: unknown node %q", name)
	}
	out := make([]float64, len(w.Data))
	for k, x := range w.Data {
		out[k] = nodeVoltage(x, idx)
	}
	return out, nil
}

// BranchCurrent returns the branch-current waveform of a named voltage
// source or inductor, or an error for a missing or non-branch device.
func (w *Waveforms) BranchCurrent(name string) ([]float64, error) {
	d := w.sim.ckt.Device(name)
	if d == nil {
		return nil, fmt.Errorf("circuit: unknown device %q", name)
	}
	out := make([]float64, len(w.Data))
	switch dev := d.(type) {
	case *VSource:
		for k, x := range w.Data {
			out[k] = dev.Current(x)
		}
	case *Inductor:
		for k, x := range w.Data {
			out[k] = dev.Current(x)
		}
	default:
		return nil, fmt.Errorf("circuit: %q is not a branch-current device", name)
	}
	return out, nil
}

// Window returns the sample range with Times in [t0, t1] as (start, end)
// indices (half-open).
func (w *Waveforms) Window(t0, t1 float64) (int, int) {
	start, end := 0, len(w.Times)
	for start < end && w.Times[start] < t0 {
		start++
	}
	for end > start && w.Times[end-1] > t1 {
		end--
	}
	return start, end
}
