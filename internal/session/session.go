// Package session wraps the ask/tell core.Engine into a long-lived,
// concurrency-safe optimization session — the unit of work of the
// optimization-as-a-service subsystem (internal/server exposes sessions over
// HTTP, internal/client consumes them).
//
// A Session decouples "suggest" from "evaluate": external evaluators (SPICE
// farms, job schedulers, remote clients) poll Ask for the next query,
// run the simulation wherever they like, and feed the outcome back through
// Tell. The underlying engine guarantees that a session-driven trajectory is
// bit-identical to the in-process core.Optimize under the same seed.
//
// Sessions are durable: every ingested observation is persisted atomically
// through Config.Store (the pluggable storage engine), and Open restores a
// previously persisted session transparently — a process killed mid-run
// resumes exactly where its last checkpoint left off, rolling back past torn
// or corrupt snapshot generations when the store detects them.
//
// Surrogate fitting is the expensive step of Ask. Sessions sharing one
// *Limiter bound the number of concurrently fitting sessions process-wide,
// so a server with hundreds of live sessions degrades gracefully instead of
// oversubscribing the CPU (each fit itself parallelizes via
// internal/parallel up to Config.Core.Workers).
package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Limiter is a counting semaphore bounding how many sessions may run their
// surrogate-fit/acquisition pipeline at once. InUse/Waiting expose the live
// queue state for observability (the server publishes them as gauges), at
// the cost of two atomic ops per Acquire.
type Limiter struct {
	sem     chan struct{}
	inUse   atomic.Int64
	waiting atomic.Int64
}

// NewLimiter builds a limiter admitting n concurrent fits; n <= 0 selects
// parallel.DefaultWorkers().
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		n = parallel.DefaultWorkers()
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// Acquire blocks until a fit slot is free or ctx is done.
func (l *Limiter) Acquire(ctx context.Context) error {
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	select {
	case l.sem <- struct{}{}:
		l.inUse.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (l *Limiter) Release() {
	l.inUse.Add(-1)
	<-l.sem
}

// Cap returns the number of concurrent fit slots.
func (l *Limiter) Cap() int { return cap(l.sem) }

// InUse returns the number of slots currently held.
func (l *Limiter) InUse() int { return int(l.inUse.Load()) }

// Waiting returns the number of goroutines blocked in (or entering) Acquire.
func (l *Limiter) Waiting() int { return int(l.waiting.Load()) }

// Config describes one session.
type Config struct {
	// Problem is the optimization problem evaluators will be asked to
	// simulate (required). For service deployments this is the server-side
	// twin of whatever the evaluator runs; only its identity/shape and cost
	// model are consulted — evaluations arrive through Tell.
	Problem problem.Problem
	// Core tunes the optimizer. Core.Checkpointer is overridden to persist
	// through Store.
	Core core.Config
	// Seed seeds the session RNG; the whole trajectory is a deterministic
	// function of (Problem, Core, Seed).
	Seed int64
	// Store persists a snapshot into the storage engine under StoreID after
	// every ingested observation and lets Open restore the session, with
	// crash consistency, corruption detection and generational rollback
	// handled by the backend (required).
	Store storage.Store
	// StoreID is the record ID snapshots are stored under (required;
	// typically the server-side session ID).
	StoreID string
	// Limiter bounds concurrent surrogate fits across all sessions sharing
	// it (required).
	Limiter *Limiter
}

// Session is a thread-safe, persistent ask/tell optimization run.
type Session struct {
	mu  sync.Mutex
	eng *core.Engine
	cfg Config

	created  time.Time
	lastUsed time.Time
}

// Status is a point-in-time summary of a session.
type Status struct {
	core.Progress
	Observations int
	Created      time.Time
	LastUsed     time.Time
}

// Open restores the session persisted in cfg.Store when a snapshot exists
// (validated against cfg; mismatches return core.ErrResumeMismatch), and
// starts a fresh session otherwise — the idempotent entry point for servers
// recovering their session inventory after a restart. A store whose every
// generation of the snapshot is corrupt reports storage.ErrNotFound (after
// quarantining the evidence), which also starts fresh: no acknowledged
// observation can be in a snapshot that never verified.
func Open(cfg Config) (*Session, error) {
	switch {
	case cfg.Problem == nil:
		return nil, errors.New("session: Config.Problem is required")
	case cfg.Store == nil || cfg.StoreID == "":
		return nil, errors.New("session: Config.Store and Config.StoreID are required")
	case cfg.Limiter == nil:
		return nil, errors.New("session: Config.Limiter is required")
	}
	cfg.Core.Checkpointer = core.StoreCheckpointer(cfg.Store, cfg.StoreID)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var eng *core.Engine
	switch ck, err := core.LoadCheckpointFromStore(cfg.Store, cfg.StoreID); {
	case err == nil:
		eng, err = core.RestoreEngine(cfg.Problem, cfg.Core, rng, ck)
		if err != nil {
			return nil, err
		}
	case errors.Is(err, storage.ErrNotFound):
		// No snapshot yet: fresh session.
		if eng, err = core.NewEngine(cfg.Problem, cfg.Core, rng); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("session: open %s from store: %w", cfg.StoreID, err)
	}
	now := time.Now()
	return &Session{eng: eng, cfg: cfg, created: now, lastUsed: now}, nil
}

// touch records activity; callers hold s.mu.
func (s *Session) touch() { s.lastUsed = time.Now() }

// Ask returns the pending suggestion, computing the next one when none is
// outstanding. The fit budget (Config.Limiter) is acquired for the duration
// of the computation; ctx bounds only the wait for that slot plus the
// caller's patience — cancellation does NOT terminate the session, so an
// impatient HTTP client merely abandons its poll and can retry.
func (s *Session) Ask(ctx context.Context) (core.Suggestion, error) {
	if err := s.cfg.Limiter.Acquire(ctx); err != nil {
		return core.Suggestion{}, err
	}
	defer s.cfg.Limiter.Release()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	// The engine gets a detached context on purpose: a per-request ctx would
	// terminally interrupt the run on client disconnect. Detach strips
	// deadlines and cancellation but keeps the request's trace span, so
	// engine.ask still attributes to the caller's trace.
	return s.eng.Ask(telemetry.Detach(ctx))
}

// AskBatch tops the session up to q concurrently-outstanding suggestions and
// returns the full outstanding set, oldest first (see core.Engine.AskBatch
// for the fantasization contract). Like Ask, it holds a fit slot for the
// duration of any surrogate computation; with every slot already outstanding
// it returns without fitting anything.
func (s *Session) AskBatch(ctx context.Context, q int) ([]core.Suggestion, error) {
	if err := s.cfg.Limiter.Acquire(ctx); err != nil {
		return nil, err
	}
	defer s.cfg.Limiter.Release()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	// Detached context for the same reason as Ask: a per-request ctx would
	// terminally interrupt the run on client disconnect, while the trace
	// span survives for attribution.
	return s.eng.AskBatch(telemetry.Detach(ctx), q)
}

// TellByID ingests the outcome of the outstanding suggestion with the given
// ID — the out-of-order observation path of a distributed batch run (see
// core.Engine.TellByID).
func (s *Session) TellByID(id string, ev problem.Evaluation) error {
	return s.TellByIDCtx(context.Background(), id, ev)
}

// TellByIDCtx is TellByID with a context: a request span carried by ctx
// joins the engine.tell / storage.put spans to the reporting request's
// trace. Cancellation is never forwarded to the engine.
func (s *Session) TellByIDCtx(ctx context.Context, id string, ev problem.Evaluation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	return s.eng.TellByIDCtx(telemetry.Detach(ctx), id, ev)
}

// TellCtx ingests the outcome of the pending suggestion (see
// core.Engine.Tell for the validation and sanitation contract) and persists a
// checkpoint. A request span carried by ctx joins
// the trace, as for TellByIDCtx.
func (s *Session) TellCtx(ctx context.Context, x []float64, fid problem.Fidelity, ev problem.Evaluation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touch()
	return s.eng.TellCtx(telemetry.Detach(ctx), x, fid, ev)
}

// Status summarizes the session.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		Progress:     s.eng.Progress(),
		Observations: len(s.eng.History()),
		Created:      s.created,
		LastUsed:     s.lastUsed,
	}
}

// History returns a copy of the observation log.
func (s *Session) History() []core.Observation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Observation(nil), s.eng.History()...)
}

// Persist force-writes the current snapshot to the session's store. Servers
// call it before evicting idle sessions and during graceful shutdown. It goes
// through the engine's own checkpoint hook, under s.mu like every Tell, so
// the hook's encoder memo carries over and the store sees the same bytes.
func (s *Session) Persist() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Core.Checkpointer(s.eng.Snapshot())
}

// LastUsed reports the time of the most recent Ask/Tell.
func (s *Session) LastUsed() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastUsed
}

// Problem returns the session's problem.
func (s *Session) Problem() problem.Problem { return s.cfg.Problem }
