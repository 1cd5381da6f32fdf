package kernel

import (
	"fmt"

	"repro/internal/linalg"
)

// NARGP is the structured multi-fidelity kernel of eq. (9) over the augmented
// input z = (x_1..x_d, f):
//
//	k_h(z, z') = k1(f, f') · k2(x, x') + k3(x, x'),
//
// with squared-exponential factors: k1 acts on the last coordinate (the lower
// level's posterior value), k2 and k3 on the design variables.
// Hyperparameters (log-space) are laid out k1, k2, k3:
//
//	[log σ1, log l_f, log σ2, log l2_1..l2_d, log σ3, log l3_1..l3_d].
//
// Every path rounds the product before the sum, float64(k1·k2) + k3, so no
// platform may fuse it into an FMA: the value is bit-identical to evaluating
// the three factors separately and combining them term by term, which is what
// lets a fused prediction compute k2 and k3 once per query point (see
// Profile).
type NARGP struct {
	d          int
	k1, k2, k3 *SEARD
}

// NewNARGP builds the eq. (9) kernel for d design variables (input dimension
// d+1) with unit amplitudes and length scales.
func NewNARGP(d int) *NARGP {
	if d < 1 {
		panic(fmt.Sprintf("kernel: NARGP dimension %d < 1", d))
	}
	return &NARGP{d: d, k1: NewSEARD(1), k2: NewSEARD(d), k3: NewSEARD(d)}
}

// Dim implements Kernel.
func (k *NARGP) Dim() int { return k.d + 1 }

// NumHyper implements Kernel.
func (k *NARGP) NumHyper() int { return k.k1.NumHyper() + k.k2.NumHyper() + k.k3.NumHyper() }

// Hyper implements Kernel.
func (k *NARGP) Hyper(dst []float64) []float64 {
	return k.k3.Hyper(k.k2.Hyper(k.k1.Hyper(dst)))
}

// SetHyper implements Kernel.
func (k *NARGP) SetHyper(src []float64) int {
	n := k.k1.SetHyper(src)
	n += k.k2.SetHyper(src[n:])
	n += k.k3.SetHyper(src[n:])
	return n
}

// Eval implements Kernel.
func (k *NARGP) Eval(x1, x2 []float64) float64 {
	d := k.d
	v1 := k.k1.Eval(x1[d:d+1], x2[d:d+1])
	v2 := k.k2.Eval(x1[:d], x2[:d])
	return float64(v1*v2) + k.k3.Eval(x1[:d], x2[:d])
}

// EvalGrad implements Kernel.
func (k *NARGP) EvalGrad(x1, x2 []float64, grad []float64) float64 {
	d := k.d
	n1, n2 := k.k1.NumHyper(), k.k2.NumHyper()
	v1 := k.k1.EvalGrad(x1[d:d+1], x2[d:d+1], grad[:n1])
	v2 := k.k2.EvalGrad(x1[:d], x2[:d], grad[n1:n1+n2])
	scaleProductGrad(grad[:n1+n2], n1, v1, v2)
	return float64(v1*v2) + k.k3.EvalGrad(x1[:d], x2[:d], grad[n1+n2:])
}

// scaleProductGrad turns the factor gradients of k1 (grad[:n1]) and k2
// (grad[n1:]) into the gradients of their product k1·k2.
func scaleProductGrad(grad []float64, n1 int, v1, v2 float64) {
	for i := 0; i < n1; i++ {
		grad[i] *= v2
	}
	for i := n1; i < len(grad); i++ {
		grad[i] *= v1
	}
}

// Bounds implements Kernel.
func (k *NARGP) Bounds(lo, hi []float64) ([]float64, []float64) {
	lo, hi = k.k1.Bounds(lo, hi)
	lo, hi = k.k2.Bounds(lo, hi)
	return k.k3.Bounds(lo, hi)
}

// Clone implements Kernel.
func (k *NARGP) Clone() Kernel {
	return &NARGP{d: k.d, k1: k.k1.Clone().(*SEARD), k2: k.k2.Clone().(*SEARD), k3: k.k3.Clone().(*SEARD)}
}

type nargpProfile struct {
	d          int
	k1, k2, k3 *seProfile
	f          [3]float64 // scratch: one pair's factors
}

// Profile implements Kernel. Besides Eval and the factor methods, the profile
// splits its value in two steps for points that share x and differ only in
// the last coordinate:
//
//	XArgs(diff []float64) (a2, a3 float64)   // reads diff[:d] only
//	Combine(df, k2, k3 float64) float64      // float64(k1(df)·k2) + k3
//
// so the x-part is computed once per training row, k2 = exp(a2) and
// k3 = exp(a3), and each point costs one Combine. XPart returns those exps
// for one row. For every diff, Combine(diff[d], XPart(diff)) is Eval(diff):
// both take the exp of each FactorArgs argument and combine the factors with
// FromFactors. CombineRow is Combine for a
// whole cloud of last coordinates against one training row, with one
// linalg.ExpInto over the cloud instead of a call per point.
func (k *NARGP) Profile() PairProfile {
	return &nargpProfile{d: k.d,
		k1: k.k1.Profile().(*seProfile), k2: k.k2.Profile().(*seProfile), k3: k.k3.Profile().(*seProfile)}
}

func (p *nargpProfile) NumHyper() int { return p.k1.NumHyper() + p.k2.NumHyper() + p.k3.NumHyper() }

// XArgs returns the exp arguments of k2 and k3, FactorArgs' a[1] and a[2].
func (p *nargpProfile) XArgs(diff []float64) (a2, a3 float64) {
	return p.k2.arg(diff[:p.d]), p.k3.arg(diff[:p.d])
}

// XPart returns k2 and k3, the exps of XArgs(diff).
func (p *nargpProfile) XPart(diff []float64) (k2, k3 float64) {
	return p.k2.Eval(diff[:p.d]), p.k3.Eval(diff[:p.d])
}

func (p *nargpProfile) Combine(df, k2, k3 float64) float64 {
	p.f = [3]float64{df, k2, k3}
	p.f[0] = p.k1.Eval(p.f[:1])
	return p.FromFactors(p.f[:])
}

// CombineRow writes Combine(ts[s]−f, k2, k3) into out[s] for every s: the
// kernel between one training row, whose last coordinate is f and whose
// x-part is (k2, k3), and the points (x, ts[s]). It writes k1's exp
// arguments into out with the same operands and roundings as seProfile's
// (a one-term sum q is d·d exactly), takes their exps with one ExpInto, and
// combines each as FromFactors does, so every entry is bit-identical to
// Combine.
func (p *nargpProfile) CombineRow(ts []float64, f, k2, k3 float64, out []float64) {
	out = out[:len(ts)]
	logAmp, s1 := p.k1.logAmp, p.k1.s[0]
	for s, t := range ts {
		d := (t - f) * s1
		out[s] = 2*logAmp - 0.5*(d*d)
	}
	linalg.ExpInto(out, out)
	for s, e := range out {
		out[s] = float64(e*k2) + k3
	}
}

func (p *nargpProfile) Eval(diff []float64) float64 { return EvalSplit(p, diff, p.f[:]) }

// NumFactors is 3: the exp of k1, k2 and k3, in that order.
func (p *nargpProfile) NumFactors() int { return 3 }

func (p *nargpProfile) FactorArgs(diff, a []float64) {
	d := p.d
	a[0] = p.k1.arg(diff[d : d+1])
	a[1], a[2] = p.XArgs(diff)
}

// FromFactors rounds the product before the sum (see NARGP).
func (p *nargpProfile) FromFactors(f []float64) float64 { return float64(f[0]*f[1]) + f[2] }

func (p *nargpProfile) PairArgs(diffs []float64, P int, a []float64, stride int) {
	if P == 0 {
		return
	}
	d := p.d
	p.k1.PairArgs(diffs[d*P:(d+1)*P], P, a, stride)
	p.k2.PairArgs(diffs[:d*P], P, a[1:], stride)
	p.k3.PairArgs(diffs[:d*P], P, a[2:], stride)
}

// PairGrads writes each pair's k1 and k2 factor gradients, scales them into
// the gradients of the product k1·k2 (scaleProductGrad, as EvalGrad does),
// then writes its k3 gradients.
func (p *nargpProfile) PairGrads(diffs []float64, P int, f []float64, fs int, g []float64, gs int) {
	d := p.d
	n1, n2, nh := p.k1.NumHyper(), p.k2.NumHyper(), p.NumHyper()
	for q := 0; q < P; q++ {
		fq, grad := f[q*fs:q*fs+3], g[q*gs:q*gs+nh]
		p.k1.gradAt(diffs[d*P:], P, q, fq[0], grad[:n1])
		p.k2.gradAt(diffs, P, q, fq[1], grad[n1:n1+n2])
		scaleProductGrad(grad[:n1+n2], n1, fq[0], fq[1])
		p.k3.gradAt(diffs, P, q, fq[2], grad[n1+n2:])
	}
}
