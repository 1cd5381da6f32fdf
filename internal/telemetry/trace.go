package telemetry

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Tracer creates lightweight trace spans. Spans use the monotonic clock for
// durations, carry parent/child links and a 128-bit trace ID that survives
// process hops, and are emitted as SpanEvents into a Sink when they End.
// Sampling is deterministic and RNG-free with respect to the optimizer:
// every SampleEvery-th root span (counted atomically) is sampled, children
// and remote continuations inherit their parent's decision — so enabling
// tracing can never perturb the optimizer's random stream. (Span and trace
// IDs are seeded from crypto/rand at construction time, a separate stream
// the optimizer never reads.)
//
// A nil *Tracer and a nil *Span are valid no-ops: Start/Child/StartRemote
// return nil and every Span method on nil does nothing, with zero
// allocations.
type Tracer struct {
	sink        Sink
	service     string
	sampleEvery uint64
	roots       atomic.Uint64
	ids         atomic.Uint64
	// idBase and traceHi randomize this process's span and trace IDs so
	// streams merged across a fleet never collide: span IDs are a bijective
	// mix of (idBase + counter), root trace IDs pair traceHi with the root's
	// span ID.
	idBase  uint64
	traceHi uint64
}

// NewTracer builds a tracer emitting sampled spans into sink. sampleEvery
// selects every n-th root span (1 = all, 0 defaults to 1); a nil sink
// disables emission (spans still time themselves and propagate context,
// useful for tests and for relaying a trace through an uninstrumented
// process).
func NewTracer(sink Sink, sampleEvery int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{
		sink:        sink,
		sampleEvery: uint64(sampleEvery),
		idBase:      randomNonZero(),
		traceHi:     randomNonZero(),
	}
}

// SetService stamps every span emitted by this tracer with a service name —
// the per-process identity ("gateway", "mfbod/ra", "worker/w1") that the
// cross-process assembler groups by.
func (t *Tracer) SetService(name string) {
	if t != nil {
		t.service = name
	}
}

// Enabled reports whether spans emitted by this tracer go anywhere.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// randomNonZero draws 8 bytes from crypto/rand — never from math/rand, whose
// global stream belongs to the optimizer's determinism contract. A zero draw
// (or an unreadable entropy source) falls back to a process-local counter
// mixed through the finalizer so IDs stay non-zero and distinct.
func randomNonZero() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		if v := binary.LittleEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
	return mix64(fallbackSeed.Add(1))
}

var fallbackSeed atomic.Uint64

// mix64 is the splitmix64 finalizer: a bijection on uint64, so
// mix64(base+counter) yields process-unique IDs whose low bits are
// well-distributed even for sequential counters.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// nextID mints a span ID: unique within the process by construction and
// collision-resistant across processes thanks to the random base.
func (t *Tracer) nextID() uint64 {
	return mix64(t.idBase + t.ids.Add(1))
}

// TraceContext is the wire-portable identity of a span: the 128-bit trace ID
// shared by every span in the request tree, the ID of the span that is the
// parent on the far side of a process hop, and the sampling decision. The
// zero value is "no trace".
type TraceContext struct {
	TraceHi, TraceLo uint64
	SpanID           uint64
	Sampled          bool
}

// Valid reports whether tc identifies a real span (non-zero trace and span
// IDs, per W3C trace-context).
func (tc TraceContext) Valid() bool {
	return tc.TraceHi|tc.TraceLo != 0 && tc.SpanID != 0
}

// TraceID renders the 128-bit trace ID as 32 lowercase hex digits — the form
// SpanEvents carry and the assembler groups by.
func (tc TraceContext) TraceID() string {
	return fmt.Sprintf("%016x%016x", tc.TraceHi, tc.TraceLo)
}

// Span is one in-flight operation. Create with Tracer.Start, Tracer.
// StartRemote or Span.Child; finish with End. Not safe for concurrent
// mutation (one goroutine owns a span), matching how the optimizer threads
// them — but Child and Context are safe to call from another goroutine, so a
// heartbeat loop may hang children off the request span it was handed.
type Span struct {
	tr               *Tracer
	id               uint64
	parent           uint64
	traceHi, traceLo uint64
	name             string
	start            time.Time
	attrs            map[string]float64
	ended            bool
}

// Start begins a sampled root span (nil when this root is not sampled or the
// tracer is nil). The root's span ID doubles as the low word of the new
// 128-bit trace ID.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	n := t.roots.Add(1)
	if (n-1)%t.sampleEvery != 0 {
		return nil
	}
	id := t.nextID()
	return &Span{tr: t, id: id, traceHi: t.traceHi, traceLo: id, name: name, start: time.Now()}
}

// StartRemote begins a span continuing a trace that started in another
// process: it inherits tc's trace ID and sampling decision (per W3C
// semantics the caller decided sampling; the local root counter is not
// consulted or advanced) and parents itself on tc.SpanID. Returns nil when
// the tracer is nil or tc is unsampled/invalid, so unsampled requests cost
// nothing downstream.
func (t *Tracer) StartRemote(name string, tc TraceContext) *Span {
	if t == nil || !tc.Sampled || !tc.Valid() {
		return nil
	}
	return &Span{
		tr: t, id: t.nextID(), parent: tc.SpanID,
		traceHi: tc.TraceHi, traceLo: tc.TraceLo,
		name: name, start: time.Now(),
	}
}

// Child begins a span parented on s (nil-safe: a nil parent yields a nil
// child, so unsampled subtrees cost nothing).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr: s.tr, id: s.tr.nextID(), parent: s.id,
		traceHi: s.traceHi, traceLo: s.traceLo,
		name: name, start: time.Now(),
	}
}

// Context returns s's wire identity for propagation: inject it into an
// outbound request, or hand it to another tracer's StartRemote. The zero
// TraceContext (from a nil span) is invalid and injects nothing.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceHi: s.traceHi, TraceLo: s.traceLo, SpanID: s.id, Sampled: true}
}

// Attr attaches a numeric attribute (nil-safe).
func (s *Span) Attr(key string, v float64) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]float64, 4)
	}
	s.attrs[key] = v
}

// End finishes the span and emits it (idempotent, nil-safe). It returns the
// span's duration for callers that also feed a histogram.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	if s.tr != nil && s.tr.sink != nil {
		var trace string
		if s.traceHi|s.traceLo != 0 {
			trace = s.Context().TraceID()
		}
		s.tr.sink.Emit(Event{
			Type:       EventSpan,
			TimeUnixMs: nowUnixMs(),
			Span: &SpanEvent{
				ID:          s.id,
				Parent:      s.parent,
				Trace:       trace,
				Service:     s.tr.service,
				Name:        s.name,
				StartUnixNs: s.start.UnixNano(),
				DurNs:       d.Nanoseconds(),
				Attrs:       s.attrs,
			},
		})
	}
	return d
}
