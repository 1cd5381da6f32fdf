package circuit

import "math"

// Waveform is a time-dependent source value. DC analysis evaluates it at
// t = 0.
type Waveform interface {
	At(t float64) float64
}

// DCValue is a constant source value.
type DCValue float64

// At implements Waveform.
func (v DCValue) At(float64) float64 { return float64(v) }

// DC returns a constant waveform.
func DC(v float64) Waveform { return DCValue(v) }

// Sine is the SPICE SIN source: offset + amplitude·sin(2πf(t−delay)) for
// t ≥ delay, offset before.
type Sine struct {
	Offset, Amplitude, Freq, Delay float64
}

// At implements Waveform.
func (s Sine) At(t float64) float64 {
	if t < s.Delay {
		return s.Offset
	}
	return s.Offset + s.Amplitude*math.Sin(2*math.Pi*s.Freq*(t-s.Delay))
}

// Pulse is the SPICE PULSE source: V1 → V2 with delay, linear rise/fall,
// pulse width and period.
type Pulse struct {
	V1, V2                   float64
	Delay, Rise, Fall, Width float64
	Period                   float64
}

// At implements Waveform.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.V1
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		if p.Rise == 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*tt/p.Rise
	case tt < p.Rise+p.Width:
		return p.V2
	case tt < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(tt-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}
