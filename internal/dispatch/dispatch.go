// Package dispatch implements the lease-based work queue that fans a
// session's outstanding suggestions out to a fleet of evaluation workers —
// the coordination layer between the batch ask/tell engine (core.AskBatch /
// core.Engine.TellByID, surfaced through internal/session) and the
// mfbo-worker daemons evaluating circuits on remote machines.
//
// # Lease state machine
//
// Every outstanding suggestion of a session moves through:
//
//	pending ──Lease──▶ leased ──Report──▶ observed (told to the engine)
//	   ▲                  │
//	   └────expiry────────┘   (attempt++, requeued; after Config.MaxAttempts
//	                           expiries the suggestion is told as Failed)
//
// A worker holding a lease must heartbeat before the TTL elapses; a missed
// heartbeat (worker crash, network partition, OOM-killed SPICE job) expires
// the lease and the suggestion becomes leasable again — by a different
// worker, with the attempt counter bumped. A report for an expired lease is
// still accepted when the suggestion is outstanding (late work is real work);
// when the requeued evaluation already reported from another worker, the
// duplicate is discarded and acknowledged as such.
//
// # Durability
//
// The queue itself is deliberately memory-only: the ground truth of "which
// evaluations are outstanding" is the engine's pending set, which rides in
// every session checkpoint (core.Checkpoint.Pending). After a server restart
// the restored sessions replay their pending suggestions verbatim and the
// queue re-leases them on demand; workers whose leases vanished in the
// restart simply see lease_expired on their next heartbeat/report and move
// on. No separate queue journal can drift out of sync with the optimizer
// state, because there is none.
//
// Sessions are resolved lazily through Config.Resolve on every operation, so
// the queue never holds a stale *session.Session across the server's
// idle-eviction / lazy-restore cycle.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// Typed sentinel errors; classify with errors.Is.
var (
	// ErrNoWork reports that every outstanding suggestion of the session is
	// already leased (or the session is waiting on other workers' results
	// before it can propose more). The worker should retry after a delay.
	ErrNoWork = errors.New("dispatch: no work available, retry later")

	// ErrLeaseExpired rejects a heartbeat or report whose lease is unknown:
	// it expired and was requeued, the suggestion completed elsewhere, or the
	// server restarted. The worker should drop the unit and lease afresh.
	ErrLeaseExpired = errors.New("dispatch: lease expired or unknown")
)

// maxLeaseTTL caps the lease duration a worker may request.
const maxLeaseTTL = 10 * time.Minute

// Config tunes a Queue. The zero value of every field selects a sensible
// default; Resolve is required.
type Config struct {
	// Resolve maps a session ID to its live session — required. The server
	// passes its lazy-restoring lookup so evicted sessions come back from
	// their checkpoints transparently.
	Resolve func(sessionID string) (*session.Session, error)
	// MaxInFlight bounds the concurrently-outstanding suggestions per
	// session — the AskBatch width and therefore the backpressure limit on
	// how many workers one session feeds (default 4).
	MaxInFlight int
	// LeaseTTL is the default lease duration (default 30s); a worker may
	// request a different TTL per lease, capped at maxLeaseTTL.
	LeaseTTL time.Duration
	// MaxAttempts is the number of lease expiries after which a suggestion
	// is abandoned and told to the engine as a Failed evaluation (charged,
	// excluded from training) instead of being requeued forever (default 3).
	MaxAttempts int
	// RetryAfter is the poll-again hint returned with ErrNoWork (default 1s).
	RetryAfter time.Duration
	// ScanEvery is the janitor period for expiring dead leases (default 1s);
	// negative disables the background janitor (tests drive Scan directly).
	ScanEvery time.Duration
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
	// Telemetry, when non-nil, registers the mfbo_dispatch_* metrics on its
	// registry.
	Telemetry *telemetry.Recorder
}

func (c *Config) defaults() error {
	if c.Resolve == nil {
		return errors.New("dispatch: Config.Resolve is required")
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ScanEvery == 0 {
		// An embedded queue without an explicit period still needs the
		// janitor: without it a crashed worker's lease would never expire.
		c.ScanEvery = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// Grant is one successfully leased evaluation.
type Grant struct {
	// LeaseID names the lease for heartbeats and the report.
	LeaseID string
	// SessionID echoes the session the work belongs to.
	SessionID string
	// Suggestion is the query to evaluate (ID, point, fidelity, iteration).
	Suggestion core.Suggestion
	// Attempt counts prior leases of this suggestion that expired.
	Attempt int
	// Deadline is the lease expiry; Heartbeat extends it.
	Deadline time.Time
}

// Ack acknowledges a report.
type Ack struct {
	// Duplicate reports that the suggestion's observation had already been
	// ingested (requeued evaluation reported twice); the report was
	// discarded. Not an error.
	Duplicate bool
}

// lease is the queue's record of one granted lease.
type lease struct {
	id        string
	sessionID string
	sugID     string
	worker    string
	ttl       time.Duration
	granted   time.Time
	deadline  time.Time
	attempt   int
}

// metrics caches the queue's metric handles (nil when telemetry is off).
type metrics struct {
	granted    *telemetry.Counter
	expired    *telemetry.Counter
	requeued   *telemetry.Counter
	failed     *telemetry.Counter
	heartbeats *telemetry.Counter
	reportOK   *telemetry.Counter
	reportDup  *telemetry.Counter
	reportLate *telemetry.Counter
	leaseAge   *telemetry.Histogram
}

// Queue is the lease-based dispatch queue. It is safe for concurrent use.
type Queue struct {
	cfg Config
	met *metrics

	mu       sync.Mutex
	leases   map[string]*lease // by lease ID
	bySug    map[string]string // session/suggestion key → lease ID
	attempts map[string]int    // session/suggestion key → expired-lease count
	depth    map[string]int    // session ID → outstanding suggestions at last look
	seq      uint64            // lease ID sequence
	// Acked idempotency keys (session/key → true) with FIFO eviction, so a
	// worker retrying a report whose ack was lost in transit gets a clean
	// Duplicate ack instead of a confusing lease/suggestion error. Keys are
	// recorded only once an ack was actually produced — a report that failed
	// server-side stays retriable.
	acked      map[string]bool
	ackedOrder []string
	// Told suggestions (session/suggestion key → true), FIFO-bounded like
	// acked. Lease reads the outstanding batch before it takes mu, so that
	// read can still list a suggestion whose report was told meanwhile; the
	// grant skips every key in this set.
	told      map[string]bool
	toldOrder []string

	stop chan struct{}
	done sync.WaitGroup
}

// New builds a queue and, when cfg.ScanEvery > 0, starts its expiry janitor
// (stop it with Close).
func New(cfg Config) (*Queue, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	q := &Queue{
		cfg:      cfg,
		leases:   make(map[string]*lease),
		bySug:    make(map[string]string),
		attempts: make(map[string]int),
		depth:    make(map[string]int),
		acked:    make(map[string]bool),
		told:     make(map[string]bool),
		stop:     make(chan struct{}),
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Metrics != nil {
		reg := cfg.Telemetry.Metrics
		q.met = &metrics{
			granted:    reg.Counter("mfbo_dispatch_leases_granted_total", "evaluation leases handed to workers"),
			expired:    reg.Counter("mfbo_dispatch_leases_expired_total", "leases expired by missed heartbeats"),
			requeued:   reg.Counter("mfbo_dispatch_requeues_total", "expired evaluations made leasable again"),
			failed:     reg.Counter("mfbo_dispatch_suggestions_failed_total", "evaluations abandoned after exhausting lease attempts"),
			heartbeats: reg.Counter("mfbo_dispatch_heartbeats_total", "lease heartbeats accepted"),
			reportOK:   reg.Counter("mfbo_dispatch_reports_total", "evaluation reports by outcome", "outcome", "ok"),
			reportDup:  reg.Counter("mfbo_dispatch_reports_total", "evaluation reports by outcome", "outcome", "duplicate"),
			reportLate: reg.Counter("mfbo_dispatch_reports_total", "evaluation reports by outcome", "outcome", "late"),
			leaseAge:   reg.Histogram("mfbo_dispatch_lease_age_seconds", "lease hold time at report", nil),
		}
		reg.GaugeFunc("mfbo_dispatch_leases_active", "leases currently held by workers", func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return float64(len(q.leases))
		})
		reg.GaugeFunc("mfbo_dispatch_queue_depth", "outstanding suggestions across sessions known to the queue", func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			n := 0
			for _, d := range q.depth {
				n += d
			}
			return float64(n)
		})
	}
	if cfg.ScanEvery > 0 {
		q.done.Add(1)
		go q.janitor()
	}
	return q, nil
}

// Close stops the expiry janitor. Leases and attempt counters are dropped
// with the process; see the package comment for why that is safe.
func (q *Queue) Close() {
	select {
	case <-q.stop:
	default:
		close(q.stop)
	}
	q.done.Wait()
}

func (q *Queue) janitor() {
	defer q.done.Done()
	t := time.NewTicker(q.cfg.ScanEvery)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-t.C:
			q.Scan(q.cfg.Now())
		}
	}
}

func sugKey(sessionID, sugID string) string { return sessionID + "/" + sugID }

// Lease asks the session for its outstanding batch (topping it up to width
// suggestions — this is where fantasy-augmented proposals happen) and grants
// the oldest suggestion not currently leased. width <= 0 selects
// Config.MaxInFlight; larger values are capped by it (the queue-wide
// backpressure limit). ErrNoWork means every outstanding suggestion is taken;
// a terminal engine error (classify with errors.Is against
// core.ErrBudgetExhausted / core.ErrInterrupted) means the session is
// finished and the worker fleet can drain.
func (q *Queue) Lease(ctx context.Context, sessionID, worker string, ttl time.Duration, width int) (*Grant, error) {
	sess, err := q.cfg.Resolve(sessionID)
	if err != nil {
		return nil, err
	}
	if ttl <= 0 {
		ttl = q.cfg.LeaseTTL
	}
	if ttl > maxLeaseTTL {
		ttl = maxLeaseTTL
	}
	if width <= 0 || width > q.cfg.MaxInFlight {
		width = q.cfg.MaxInFlight
	}
	// The batch top-up runs outside q.mu: surrogate fitting is slow and the
	// session serializes it internally. Concurrent Lease calls for one
	// session see the identical outstanding set and race only for the grant
	// below, under the lock.
	sugs, err := sess.AskBatch(ctx, width)
	if err != nil {
		return nil, err
	}
	now := q.cfg.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.depth[sessionID] = len(sugs)
	for i := range sugs {
		key := sugKey(sessionID, sugs[i].ID)
		if _, taken := q.bySug[key]; taken || q.told[key] {
			continue
		}
		q.seq++
		l := &lease{
			id:        leaseID(q.seq, sessionID, sugs[i].ID),
			sessionID: sessionID,
			sugID:     sugs[i].ID,
			worker:    worker,
			ttl:       ttl,
			granted:   now,
			deadline:  now.Add(ttl),
			attempt:   q.attempts[key],
		}
		q.leases[l.id] = l
		q.bySug[key] = l.id
		if q.met != nil {
			q.met.granted.Inc()
		}
		return &Grant{
			LeaseID:    l.id,
			SessionID:  sessionID,
			Suggestion: sugs[i],
			Attempt:    l.attempt,
			Deadline:   l.deadline,
		}, nil
	}
	return nil, ErrNoWork
}

// Heartbeat extends a live lease by its TTL and returns the new deadline.
func (q *Queue) Heartbeat(leaseID string) (time.Time, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.leases[leaseID]
	if !ok {
		return time.Time{}, fmt.Errorf("%w: %s", ErrLeaseExpired, leaseID)
	}
	l.deadline = q.cfg.Now().Add(l.ttl)
	if q.met != nil {
		q.met.heartbeats.Inc()
	}
	return l.deadline, nil
}

// maxAckedKeys bounds the idempotency cache; old keys are evicted FIFO. At
// one key per completed evaluation this covers thousands of reports — far
// beyond any plausible retry window.
const maxAckedKeys = 4096

// ReportCtx ingests the outcome of a leased evaluation into the session (via
// TellByID, so reports may arrive in any order within the batch) and releases
// the lease. A report whose lease already expired is still accepted while the
// suggestion is outstanding — the work is real even if the heartbeat died —
// and acknowledged as a Duplicate when another worker's result arrived first.
// A non-empty idemKey identifies the evaluation attempt: a retry of an
// already-acked report short-circuits to a Duplicate ack. A request span
// carried by ctx attributes the Tell-side engine work (surrogate ingestion,
// checkpoint fsync) to the reporting worker's trace. Cancellation is not
// forwarded — an accepted report is always fully ingested.
func (q *Queue) ReportCtx(ctx context.Context, sessionID, leaseID, sugID, idemKey string, ev problem.Evaluation) (*Ack, error) {
	sess, err := q.cfg.Resolve(sessionID)
	if err != nil {
		return nil, err
	}
	key := sugKey(sessionID, sugID)
	now := q.cfg.Now()
	q.mu.Lock()
	if idemKey != "" && q.acked[sugKey(sessionID, idemKey)] {
		q.mu.Unlock()
		if q.met != nil {
			q.met.reportDup.Inc()
		}
		return &Ack{Duplicate: true}, nil
	}
	l, live := q.leases[leaseID]
	if live && (l.sessionID != sessionID || l.sugID != sugID) {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w: lease %s does not cover suggestion %s", ErrLeaseExpired, leaseID, sugID)
	}
	if live {
		// The suggestion stays taken in bySug until the tell below settles,
		// so no Lease offers it while its report is being ingested.
		delete(q.leases, leaseID)
	}
	q.mu.Unlock()

	err = sess.TellByIDCtx(ctx, sugID, ev)
	q.mu.Lock()
	if live && q.bySug[key] == leaseID {
		delete(q.bySug, key)
	}
	if err == nil {
		remember(q.told, &q.toldOrder, key)
		delete(q.attempts, key)
		if d := q.depth[sessionID]; d > 0 {
			q.depth[sessionID] = d - 1
		}
	}
	q.mu.Unlock()
	if err != nil {
		if errors.Is(err, core.ErrUnknownSuggestion) || errors.Is(err, core.ErrNoPendingAsk) {
			// The requeued evaluation already reported from elsewhere (or
			// the suggestion was abandoned as failed): discard.
			q.recordAck(sessionID, idemKey)
			if q.met != nil {
				q.met.reportDup.Inc()
			}
			return &Ack{Duplicate: true}, nil
		}
		return nil, err
	}
	q.recordAck(sessionID, idemKey)
	if q.met != nil {
		if live {
			q.met.reportOK.Inc()
			q.met.leaseAge.Observe(now.Sub(l.granted).Seconds())
		} else {
			q.met.reportLate.Inc()
		}
	}
	return &Ack{}, nil
}

// recordAck remembers an idempotency key once its report has been answered
// with an ack (real or duplicate) — errors never record, so retries after a
// server-side failure are re-processed. FIFO-bounded at maxAckedKeys.
func (q *Queue) recordAck(sessionID, idemKey string) {
	if idemKey == "" {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	remember(q.acked, &q.ackedOrder, sugKey(sessionID, idemKey))
}

// remember adds k to set and appends it to order, the set's insertion order,
// evicting the oldest key beyond maxAckedKeys entries.
func remember(set map[string]bool, order *[]string, k string) {
	if set[k] {
		return
	}
	set[k] = true
	*order = append(*order, k)
	if len(*order) > maxAckedKeys {
		delete(set, (*order)[0])
		*order = (*order)[1:]
	}
}

// Forget drops what the queue remembers of a deleted session: its acked and
// told keys (with their FIFO order entries), its depth and its attempt
// counters. Its live leases still expire through Scan. A later report for the
// session fails at Config.Resolve before any of these keys is read, so
// forgetting changes no reply.
func (q *Queue) Forget(sessionID string) {
	prefix := sugKey(sessionID, "")
	q.mu.Lock()
	defer q.mu.Unlock()
	forget(q.acked, &q.ackedOrder, prefix)
	forget(q.told, &q.toldOrder, prefix)
	for k := range q.attempts {
		if strings.HasPrefix(k, prefix) {
			delete(q.attempts, k)
		}
	}
	delete(q.depth, sessionID)
}

// forget removes every key with prefix from set and from order.
func forget(set map[string]bool, order *[]string, prefix string) {
	kept := (*order)[:0]
	for _, k := range *order {
		if strings.HasPrefix(k, prefix) {
			delete(set, k)
		} else {
			kept = append(kept, k)
		}
	}
	clear((*order)[len(kept):])
	*order = kept
}

// Scan expires leases whose deadline passed: the suggestion becomes leasable
// again with its attempt counter bumped, and after MaxAttempts expiries it is
// abandoned — told to the engine as a Failed evaluation so the optimizer
// charges it and moves on instead of waiting forever on a poisoned point.
// Returns the number of leases expired. The janitor calls this every
// ScanEvery; tests call it directly with a controlled clock.
func (q *Queue) Scan(now time.Time) int {
	type abandoned struct {
		sessionID, sugID string
	}
	var giveUp []abandoned
	q.mu.Lock()
	n := 0
	for id, l := range q.leases {
		if now.Before(l.deadline) {
			continue
		}
		n++
		key := sugKey(l.sessionID, l.sugID)
		delete(q.leases, id)
		if q.bySug[key] == id {
			delete(q.bySug, key)
		}
		q.attempts[key]++
		if q.met != nil {
			q.met.expired.Inc()
		}
		if q.attempts[key] >= q.cfg.MaxAttempts {
			giveUp = append(giveUp, abandoned{l.sessionID, l.sugID})
			if q.met != nil {
				q.met.failed.Inc()
			}
		} else if q.met != nil {
			q.met.requeued.Inc()
		}
	}
	q.mu.Unlock()
	for _, a := range giveUp {
		sess, err := q.cfg.Resolve(a.sessionID)
		if err != nil {
			continue // session gone; its checkpointed pending set is intact
		}
		nc := sess.Problem().NumConstraints()
		// ErrUnknownSuggestion here means a late report won the race — fine.
		err = sess.TellByID(a.sugID, problem.PenaltyEvaluation(nc))
		key := sugKey(a.sessionID, a.sugID)
		q.mu.Lock()
		if err == nil {
			remember(q.told, &q.toldOrder, key)
		}
		delete(q.attempts, key)
		if d := q.depth[a.sessionID]; d > 0 {
			q.depth[a.sessionID] = d - 1
		}
		q.mu.Unlock()
	}
	return n
}

// RetryAfter is the poll-again hint for ErrNoWork replies.
func (q *Queue) RetryAfter() time.Duration { return q.cfg.RetryAfter }
