package circuit

import (
	"math"
	"testing"
)

func sineSamples(n int, dt, f, amp, phase float64) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = amp * math.Sin(2*math.Pi*f*float64(k)*dt+phase)
	}
	return out
}

func TestGoertzelMatchesAmplitude(t *testing.T) {
	f0 := 1e6
	dt := 1 / (f0 * 100)
	n := 400 // 4 periods
	for _, amp := range []float64{0.1, 1, 7} {
		s := sineSamples(n, dt, f0, amp, 0.3)
		got := HarmonicAmplitude(s, dt, f0, 1)
		if math.Abs(got-amp) > 1e-9*amp+1e-12 {
			t.Fatalf("amplitude %v measured as %v", amp, got)
		}
	}
}

func TestHarmonicSeparation(t *testing.T) {
	f0 := 1e3
	dt := 1 / (f0 * 128)
	n := 512 // 4 periods
	s := make([]float64, n)
	for k := range s {
		tt := float64(k) * dt
		s[k] = 2*math.Sin(2*math.Pi*f0*tt) + 0.5*math.Sin(2*math.Pi*3*f0*tt)
	}
	if got := HarmonicAmplitude(s, dt, f0, 1); math.Abs(got-2) > 1e-6 {
		t.Fatalf("fundamental = %v, want 2", got)
	}
	if got := HarmonicAmplitude(s, dt, f0, 2); got > 1e-6 {
		t.Fatalf("2nd harmonic leakage %v", got)
	}
	if got := HarmonicAmplitude(s, dt, f0, 3); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("3rd harmonic = %v, want 0.5", got)
	}
}

func TestTHDPureToneIsZero(t *testing.T) {
	f0 := 1e3
	dt := 1 / (f0 * 100)
	s := sineSamples(500, dt, f0, 1, 0)
	if got := THD(s, dt, f0, 7); got > 1e-9 {
		t.Fatalf("pure-tone THD = %v", got)
	}
}

func TestTHDKnownMix(t *testing.T) {
	// Fundamental 1, 2nd harmonic 0.1, 3rd 0.05 → THD = √(0.01+0.0025).
	f0 := 1e3
	dt := 1 / (f0 * 128)
	n := 512
	s := make([]float64, n)
	for k := range s {
		tt := float64(k) * dt
		s[k] = math.Sin(2*math.Pi*f0*tt) + 0.1*math.Sin(2*math.Pi*2*f0*tt) + 0.05*math.Sin(2*math.Pi*3*f0*tt)
	}
	want := math.Sqrt(0.01 + 0.0025)
	if got := THD(s, dt, f0, 5); math.Abs(got-want) > 1e-6 {
		t.Fatalf("THD = %v, want %v", got, want)
	}
	wantDB := 20 * math.Log10(want)
	if got := THDdB(s, dt, f0, 5); math.Abs(got-wantDB) > 1e-4 {
		t.Fatalf("THDdB = %v, want %v", got, wantDB)
	}
}

func TestMean(t *testing.T) {
	s := sineSamples(1000, 1e-6, 1e3, 2, 0)
	if got := Mean(s); math.Abs(got) > 1e-3 {
		t.Fatalf("Mean = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5, -9})
	if lo != -9 || hi != 5 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestDBm(t *testing.T) {
	if got := DBm(1e-3); math.Abs(got) > 1e-12 {
		t.Fatalf("1 mW = %v dBm, want 0", got)
	}
	if got := DBm(0.2); math.Abs(got-23.0103) > 1e-3 {
		t.Fatalf("200 mW = %v dBm, want ≈23", got)
	}
}

func TestWaveformsWindow(t *testing.T) {
	w := &Waveforms{Times: []float64{0, 1, 2, 3, 4, 5}}
	s, e := w.Window(1.5, 4.5)
	if s != 2 || e != 5 {
		t.Fatalf("Window = [%d, %d), want [2, 5)", s, e)
	}
	s, e = w.Window(0, 5)
	if s != 0 || e != 6 {
		t.Fatalf("full Window = [%d, %d)", s, e)
	}
}

func TestWaveformShapes(t *testing.T) {
	p := Pulse{V1: 0, V2: 1, Delay: 1, Rise: 0.5, Fall: 0.5, Width: 2, Period: 5}
	cases := []struct{ t, want float64 }{
		{0, 0}, {1, 0}, {1.25, 0.5}, {1.5, 1}, {3, 1}, {3.75, 0.5}, {4.5, 0},
		{6.25, 0.5}, // periodic repeat
	}
	for _, c := range cases {
		if got := p.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("pulse(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	s := Sine{Offset: 1, Amplitude: 2, Freq: 1, Delay: 0.5}
	if got := s.At(0.25); got != 1 {
		t.Fatalf("sine before delay = %v, want offset", got)
	}
	if got := s.At(0.75); math.Abs(got-(1+2*math.Sin(2*math.Pi*0.25))) > 1e-12 {
		t.Fatalf("sine(0.75) = %v", got)
	}
}
