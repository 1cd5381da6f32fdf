package robust

import (
	"sync"

	"repro/internal/problem"
)

// FaultCounts aggregates the failure bookkeeping of one fidelity level.
type FaultCounts struct {
	// Attempts counts every call into the wrapped simulator (retries
	// included); Successes the attempts that produced a usable evaluation.
	Attempts, Successes int
	// Failures counts evaluations that exhausted their retry budget and were
	// surfaced as a penalty; Retries counts backoff re-attempts.
	Failures, Retries int
	// Panics / Timeouts / NonFinite break failures down by mechanism (an
	// attempt can contribute to at most one of them).
	Panics, Timeouts, NonFinite int
	// Causes histograms the error strings seen (truncated), LastError keeps
	// the most recent one verbatim.
	Causes    map[string]int
	LastError string
}

// FaultLog records per-fidelity failure statistics for one SafeProblem. The
// individual retry and failure events go to the telemetry event stream (see
// Policy.Telemetry). It is safe for concurrent use; the experiment runner
// evaluates replications in parallel.
type FaultLog struct {
	mu  sync.Mutex
	per map[problem.Fidelity]*FaultCounts
}

// NewFaultLog returns an empty log.
func NewFaultLog() *FaultLog {
	return &FaultLog{per: make(map[problem.Fidelity]*FaultCounts)}
}

func (l *FaultLog) counts(f problem.Fidelity) *FaultCounts {
	c, ok := l.per[f]
	if !ok {
		c = &FaultCounts{Causes: make(map[string]int)}
		l.per[f] = c
	}
	return c
}

// cause classifies and truncates an error string for the histogram.
func cause(err error) string {
	s := err.Error()
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

func (l *FaultLog) recordAttempt(f problem.Fidelity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Attempts++
}

func (l *FaultLog) recordSuccess(f problem.Fidelity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Successes++
}

func (l *FaultLog) recordRetry(f problem.Fidelity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Retries++
}

// recordError classifies one failed attempt (not necessarily terminal).
func (l *FaultLog) recordError(f problem.Fidelity, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.counts(f)
	switch {
	case isPanicError(err):
		c.Panics++
	case isTimeoutError(err):
		c.Timeouts++
	case isNonFiniteError(err):
		c.NonFinite++
	}
	c.Causes[cause(err)]++
	c.LastError = err.Error()
}

func (l *FaultLog) recordFailure(f problem.Fidelity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Failures++
}

// Snapshot returns a deep copy of the per-fidelity counters, keyed by the
// fidelity's String() form ("low"/"high") so it serializes readably.
func (l *FaultLog) Snapshot() map[string]FaultCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]FaultCounts, len(l.per))
	for f, c := range l.per {
		cp := *c
		cp.Causes = make(map[string]int, len(c.Causes))
		for k, v := range c.Causes {
			cp.Causes[k] = v
		}
		out[f.String()] = cp
	}
	return out
}

// TotalFailures returns the number of terminally failed evaluations across
// fidelities.
func (l *FaultLog) TotalFailures() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.per {
		n += c.Failures
	}
	return n
}

// TotalRetries returns the number of backoff re-attempts across fidelities.
func (l *FaultLog) TotalRetries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.per {
		n += c.Retries
	}
	return n
}
