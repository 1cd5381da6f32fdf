package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedSinceAveragesTheCallsSamples(t *testing.T) {
	ms := int64(time.Millisecond)
	p := &speedProbe{
		at:    []int64{0, 20 * ms, 40 * ms, 60 * ms},
		speed: []float64{1, 0.5, 0.5, 1},
	}
	for _, c := range []struct {
		name string
		from int64
		want float64
	}{
		{"every sample since", 0, 0.75},
		{"half a period of slack before the call", 25 * ms, (0.5 + 0.5 + 1) / 3},
		{"after the last sample: the latest", 90 * ms, 1},
	} {
		if got := p.speedSince(c.from); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: speedSince = %v, want %v", c.name, got, c.want)
		}
	}
	var none *speedProbe
	if none.speedSince(0) != 1 {
		t.Error("a nil probe must leave times as measured")
	}
}

func TestProbeSamplesUntilEnd(t *testing.T) {
	p := startProbe()
	time.Sleep(3 * probeEvery)
	p.end()
	p.end() // a second end is a no-op
	p.mu.Lock()
	n := len(p.at)
	p.mu.Unlock()
	if n < 3 {
		t.Fatalf("%d samples over three probe periods", n)
	}
	for i, s := range p.speed {
		if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
			t.Errorf("sample %d: speed %v", i, s)
		}
	}
	start := time.Now()
	time.Sleep(time.Millisecond)
	if ms := p.elapsed(start); ms <= 0 {
		t.Errorf("elapsed = %v ms", ms)
	}
}
