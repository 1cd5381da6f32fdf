package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its CPUs slow down by up to
// 1.7× for stretches of a tenth of a second to several minutes, on every
// core at once, and the share of time spent slow differs from run to run.
// Raw wall times of identical work then spread by 20–40% between runs,
// more than any regression bound worth having. So the benchmark measures
// the host's speed alongside the program and reports every end-to-end time
// at a fixed reference speed: each timing is multiplied by
// refKernel / (the probe kernel's time while the timed call ran). Each
// record states the host's mean speed over the pass, which divides a
// scaled time back into a wall-clock one.
//
// The probe kernel is the benchmark's own code, so no change to the
// program can move it: a Gaussian kernel matrix and its Cholesky factor,
// the surrogate's kind of arithmetic, on preallocated buffers (an
// allocating probe would be slowed by the program's garbage collector and
// couple the reference to the program's allocation rate).

const (
	probeEvery = 20 * time.Millisecond
	probeSize  = 48
	// refKernel is the probe kernel's time at full speed on the host the
	// benchmark was calibrated on (see runMeta.CPUModel in the ledger).
	refKernel = 37 * time.Microsecond
)

// speedProbe samples the host's speed in the background until end is
// called. Each sample is refKernel over the faster of two kernel runs, so
// a sample below 1 means the host ran slower than the reference.
type speedProbe struct {
	mu    sync.Mutex
	at    []int64 // unix ns each sample began, ascending
	speed []float64

	stop, done chan struct{}
	stopOnce   sync.Once
	a, x       []float64 // kernel work buffers
	sink       float64
}

func startProbe() *speedProbe {
	p := &speedProbe{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		a:    make([]float64, probeSize*probeSize),
		x:    make([]float64, probeSize),
	}
	p.sample()
	go p.loop()
	return p
}

func (p *speedProbe) loop() {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			p.sample() // so the last calls of a pass have a sample after them
			return
		case <-tick.C:
			p.sample()
		}
	}
}

// end stops the sampler and waits for it to exit. Repeated calls are no-ops.
func (p *speedProbe) end() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *speedProbe) sample() {
	best := time.Duration(math.MaxInt64)
	var at time.Time
	for r := 0; r < 2; r++ {
		t0 := time.Now()
		p.sink += p.kernel()
		if d := time.Since(t0); d < best {
			best, at = d, t0
		}
	}
	p.mu.Lock()
	p.at = append(p.at, at.UnixNano())
	p.speed = append(p.speed, float64(refKernel)/float64(max(best, 1)))
	p.mu.Unlock()
}

// kernel builds a Gaussian kernel matrix over evenly spaced points and
// factors it in place.
func (p *speedProbe) kernel() float64 {
	n, a, x := probeSize, p.a, p.x
	for i := range x {
		x[i] = float64(i) / float64(n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := x[i] - x[j]
			a[i*n+j] = math.Exp(-10 * d * d)
		}
		a[i*n+i] += 1e-3
	}
	for j := 0; j < n; j++ {
		s := a[j*n+j]
		for k := 0; k < j; k++ {
			s -= a[j*n+k] * a[j*n+k]
		}
		s = math.Sqrt(s)
		a[j*n+j] = s
		for i := j + 1; i < n; i++ {
			t := a[i*n+j]
			for k := 0; k < j; k++ {
				t -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = t / s
		}
	}
	return a[n*n-1]
}

// speedSince returns the host's mean speed over the samples taken since
// half a probe period before from (unix ns), or the latest sample when
// none was; 1 for a nil probe.
func (p *speedProbe) speedSince(from int64) float64 {
	if p == nil {
		return 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.at), func(k int) bool { return p.at[k] >= from-int64(probeEvery/2) })
	if i == len(p.at) {
		return p.speed[i-1] // startProbe took one sample
	}
	s := 0.0
	for _, v := range p.speed[i:] {
		s += v
	}
	return s / float64(len(p.at)-i)
}

// elapsed returns the time since start in milliseconds at reference speed:
// scaled by the host's speed while the call that began at start ran. Call
// it as the call returns.
func (p *speedProbe) elapsed(start time.Time) float64 {
	d := time.Since(start)
	return float64(d) * p.speedSince(start.UnixNano()) / 1e6
}
