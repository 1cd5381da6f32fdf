package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/testfunc"
)

// fakeClock is a manually-advanced clock for driving lease expiry
// deterministically (the janitor is disabled via a negative ScanEvery and
// tests call Scan themselves).
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time                  { return c.now }
func (c *fakeClock) Advance(d time.Duration)         { c.now = c.now.Add(d) }
func (c *fakeClock) After(d time.Duration) time.Time { return c.now.Add(d) }

// newTestQueue builds a queue over one fresh session with a controllable
// clock. The session config keeps the initialization design large enough that
// every lease in these tests is a cheap design point — no GP fits.
func newTestQueue(t *testing.T, mut func(*Config)) (*Queue, *session.Session, *fakeClock) {
	t.Helper()
	sess, err := session.Open(session.Config{
		Problem: testfunc.ConstrainedSynthetic(),
		Core: core.Config{
			Budget:    8,
			InitLow:   8,
			InitHigh:  4,
			MSP:       optimize.MSPConfig{Starts: 4, LocalIter: 15},
			GPMaxIter: 30,
		},
		Seed:    17,
		Store:   storage.NewMem(storage.MemConfig{}),
		StoreID: "s1",
		Limiter: session.NewLimiter(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	cfg := Config{
		Resolve: func(id string) (*session.Session, error) {
			if id != "s1" {
				return nil, errors.New("unknown session")
			}
			return sess, nil
		},
		MaxInFlight: 3,
		LeaseTTL:    10 * time.Second,
		MaxAttempts: 3,
		ScanEvery:   -1, // tests drive Scan directly
		Now:         clock.Now,
	}
	if mut != nil {
		mut(&cfg)
	}
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	return q, sess, clock
}

func mustLease(t *testing.T, q *Queue, worker string) *Grant {
	t.Helper()
	g, err := q.Lease(context.Background(), "s1", worker, 0, 0)
	if err != nil {
		t.Fatalf("Lease(%s): %v", worker, err)
	}
	return g
}

func TestLeaseGrantReportTopUp(t *testing.T) {
	q, sess, _ := newTestQueue(t, nil)
	p := sess.Problem()

	// MaxInFlight = 3: three grants, all distinct, then the queue is dry.
	g1, g2, g3 := mustLease(t, q, "w1"), mustLease(t, q, "w2"), mustLease(t, q, "w3")
	ids := map[string]bool{g1.Suggestion.ID: true, g2.Suggestion.ID: true, g3.Suggestion.ID: true}
	if len(ids) != 3 {
		t.Fatalf("grants not distinct: %s %s %s", g1.Suggestion.ID, g2.Suggestion.ID, g3.Suggestion.ID)
	}
	if g1.Suggestion.ID != "init-low-0" {
		t.Fatalf("first grant %q, want the oldest pending suggestion init-low-0", g1.Suggestion.ID)
	}
	if _, err := q.Lease(context.Background(), "s1", "w4", 0, 0); !errors.Is(err, ErrNoWork) {
		t.Fatalf("4th lease: got %v, want ErrNoWork", err)
	}
	q.mu.Lock()
	held := len(q.leases)
	q.mu.Unlock()
	if held != 3 {
		t.Fatalf("%d leases held, want 3", held)
	}

	// Reporting frees capacity: the next lease tops the batch back up.
	ack, err := q.ReportCtx(context.Background(), "s1", g2.LeaseID, g2.Suggestion.ID, "", p.Evaluate(g2.Suggestion.X, g2.Suggestion.Fid))
	if err != nil || ack.Duplicate {
		t.Fatalf("Report: ack=%+v err=%v", ack, err)
	}
	g4 := mustLease(t, q, "w4")
	if ids[g4.Suggestion.ID] {
		t.Fatalf("top-up grant %q repeats a leased suggestion", g4.Suggestion.ID)
	}
	if got := sess.Status().Observations; got != 1 {
		t.Fatalf("Observations = %d, want 1", got)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	q, _, clock := newTestQueue(t, nil)
	g := mustLease(t, q, "w1")
	if !g.Deadline.Equal(clock.After(10 * time.Second)) {
		t.Fatalf("deadline %v, want now+10s", g.Deadline)
	}

	// Heartbeats push the deadline; a heartbeat-kept lease survives Scan.
	clock.Advance(8 * time.Second)
	dl, err := q.Heartbeat(g.LeaseID)
	if err != nil {
		t.Fatal(err)
	}
	if !dl.Equal(clock.After(10 * time.Second)) {
		t.Fatalf("extended deadline %v, want now+10s", dl)
	}
	clock.Advance(9 * time.Second)
	if n := q.Scan(clock.Now()); n != 0 {
		t.Fatalf("Scan expired %d leases under heartbeat, want 0", n)
	}

	// Without heartbeats the lease expires and the same suggestion is
	// re-granted with the attempt counter bumped.
	clock.Advance(2 * time.Second)
	if n := q.Scan(clock.Now()); n != 1 {
		t.Fatalf("Scan expired %d leases, want 1", n)
	}
	if _, err := q.Heartbeat(g.LeaseID); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("heartbeat on expired lease: got %v, want ErrLeaseExpired", err)
	}
	g2 := mustLease(t, q, "w2")
	if g2.Suggestion.ID != g.Suggestion.ID {
		t.Fatalf("requeued grant %q, want %q", g2.Suggestion.ID, g.Suggestion.ID)
	}
	if g2.Attempt != 1 {
		t.Fatalf("requeued attempt = %d, want 1", g2.Attempt)
	}
	if g2.LeaseID == g.LeaseID {
		t.Fatal("requeued lease reuses the expired lease ID")
	}
}

func TestLateReportThenDuplicate(t *testing.T) {
	q, sess, clock := newTestQueue(t, nil)
	p := sess.Problem()

	// w1's lease expires mid-evaluation; the unit is requeued to w2.
	g1 := mustLease(t, q, "w1")
	clock.Advance(11 * time.Second)
	q.Scan(clock.Now())
	g2 := mustLease(t, q, "w2")
	if g2.Suggestion.ID != g1.Suggestion.ID {
		t.Fatalf("requeue granted %q, want %q", g2.Suggestion.ID, g1.Suggestion.ID)
	}

	// w1 finishes anyway: the late report is real work and is ingested.
	ev := p.Evaluate(g1.Suggestion.X, g1.Suggestion.Fid)
	ack, err := q.ReportCtx(context.Background(), "s1", g1.LeaseID, g1.Suggestion.ID, "", ev)
	if err != nil {
		t.Fatalf("late report: %v", err)
	}
	if ack.Duplicate {
		t.Fatal("late report for an outstanding suggestion marked duplicate")
	}
	if got := sess.Status().Observations; got != 1 {
		t.Fatalf("Observations = %d, want 1", got)
	}

	// w2's result now loses the race: acknowledged as a duplicate, dropped.
	ack, err = q.ReportCtx(context.Background(), "s1", g2.LeaseID, g2.Suggestion.ID, "", ev)
	if err != nil {
		t.Fatalf("duplicate report: %v", err)
	}
	if !ack.Duplicate {
		t.Fatal("second report for a told suggestion not marked duplicate")
	}
	if got := sess.Status().Observations; got != 1 {
		t.Fatalf("Observations after duplicate = %d, want 1", got)
	}
}

// TestLeaseNeverGrantsToldSuggestion: Lease reads the outstanding batch
// before it takes the queue lock, so a report that lands in between must not
// let that stale read offer the suggestion it just told — its report was
// already acked. The report is injected through the clock, which Lease reads
// between the two.
func TestLeaseNeverGrantsToldSuggestion(t *testing.T) {
	var report func()
	q, sess, _ := newTestQueue(t, func(c *Config) {
		now := c.Now
		c.Now = func() time.Time {
			if r := report; r != nil {
				report = nil
				r()
			}
			return now()
		}
	})
	p := sess.Problem()
	g1 := mustLease(t, q, "w1")
	report = func() {
		ev := p.Evaluate(g1.Suggestion.X, g1.Suggestion.Fid)
		if ack, err := q.ReportCtx(context.Background(), "s1", g1.LeaseID, g1.Suggestion.ID, "", ev); err != nil || ack.Duplicate {
			t.Errorf("report: ack=%+v err=%v", ack, err)
		}
	}
	g2 := mustLease(t, q, "w2")
	if report != nil {
		t.Fatal("the report did not run inside Lease")
	}
	if g2.Suggestion.ID == g1.Suggestion.ID {
		t.Fatalf("Lease granted %q again after its report was acked", g2.Suggestion.ID)
	}
}

func TestReportLeaseSuggestionMismatch(t *testing.T) {
	q, _, _ := newTestQueue(t, nil)
	g1, g2 := mustLease(t, q, "w1"), mustLease(t, q, "w2")
	_, err := q.ReportCtx(context.Background(), "s1", g1.LeaseID, g2.Suggestion.ID, "", testfunc.ConstrainedSynthetic().Evaluate(g2.Suggestion.X, g2.Suggestion.Fid))
	if !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("cross-lease report: got %v, want ErrLeaseExpired", err)
	}
}

func TestAbandonAfterMaxAttempts(t *testing.T) {
	q, sess, clock := newTestQueue(t, func(c *Config) { c.MaxAttempts = 2 })

	g := mustLease(t, q, "w1")
	for i := 0; i < 2; i++ {
		clock.Advance(11 * time.Second)
		if n := q.Scan(clock.Now()); n != 1 {
			t.Fatalf("expiry %d: Scan expired %d, want 1", i, n)
		}
		if i == 0 {
			// First expiry requeues; re-lease so the second expiry abandons.
			g2 := mustLease(t, q, "w2")
			if g2.Suggestion.ID != g.Suggestion.ID || g2.Attempt != 1 {
				t.Fatalf("requeue grant %q attempt %d, want %q attempt 1", g2.Suggestion.ID, g2.Attempt, g.Suggestion.ID)
			}
		}
	}

	// The poisoned point was told as a Failed evaluation: charged, recorded,
	// and no longer outstanding.
	hist := sess.History()
	if len(hist) != 1 {
		t.Fatalf("history has %d observations, want 1 (the abandoned point)", len(hist))
	}
	if !hist[0].Eval.Failed {
		t.Fatal("abandoned suggestion not recorded as Failed")
	}
	if err := sess.TellByIDCtx(context.Background(), g.Suggestion.ID, problem.Evaluation{}); !errors.Is(err, core.ErrUnknownSuggestion) {
		t.Fatalf("abandoned suggestion %q still outstanding: tell gave %v", g.Suggestion.ID, err)
	}
	// The queue moves on to fresh work.
	g3 := mustLease(t, q, "w3")
	if g3.Suggestion.ID == g.Suggestion.ID {
		t.Fatal("abandoned suggestion was granted again")
	}
}

func TestLeaseTTLClamping(t *testing.T) {
	q, _, clock := newTestQueue(t, nil)

	// Requested TTL is honored…
	g, err := q.Lease(context.Background(), "s1", "w1", 5*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Deadline.Equal(clock.After(5 * time.Minute)) {
		t.Fatalf("deadline %v, want now+5m", g.Deadline)
	}
	// …and capped at maxLeaseTTL.
	g2, err := q.Lease(context.Background(), "s1", "w1", time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Deadline.Equal(clock.After(maxLeaseTTL)) {
		t.Fatalf("capped deadline %v, want now+%v", g2.Deadline, maxLeaseTTL)
	}
}

func TestResolveErrorPropagates(t *testing.T) {
	q, _, _ := newTestQueue(t, nil)
	if _, err := q.Lease(context.Background(), "nope", "w1", 0, 0); err == nil {
		t.Fatal("lease for unknown session succeeded")
	}
	if _, err := q.ReportCtx(context.Background(), "nope", "lease-x", "sug-x", "", problem.Evaluation{}); err == nil {
		t.Fatal("report for unknown session succeeded")
	}
}

func TestIdempotentReportRetry(t *testing.T) {
	q, sess, _ := newTestQueue(t, nil)
	p := sess.Problem()
	g := mustLease(t, q, "w1")
	ev := p.Evaluate(g.Suggestion.X, g.Suggestion.Fid)
	key := g.Suggestion.ID + "/0"

	ack, err := q.ReportCtx(context.Background(), "s1", g.LeaseID, g.Suggestion.ID, key, ev)
	if err != nil || ack.Duplicate {
		t.Fatalf("first report: ack=%+v err=%v", ack, err)
	}
	// The worker's ack was lost in transit; it retries the identical report.
	// The key short-circuits to a duplicate ack even though the lease is long
	// gone — no lease error, no double Tell.
	ack, err = q.ReportCtx(context.Background(), "s1", g.LeaseID, g.Suggestion.ID, key, ev)
	if err != nil {
		t.Fatalf("retried report: %v", err)
	}
	if !ack.Duplicate {
		t.Fatal("retried report not acked as duplicate")
	}
	if got := sess.Status().Observations; got != 1 {
		t.Fatalf("Observations = %d, want 1 after retry", got)
	}
}

func TestIdempotencyCacheBounded(t *testing.T) {
	q, _, _ := newTestQueue(t, nil)
	for i := 0; i < maxAckedKeys+100; i++ {
		q.recordAck("s1", fmt.Sprintf("sug-%d/0", i))
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.acked) != maxAckedKeys || len(q.ackedOrder) != maxAckedKeys {
		t.Fatalf("cache size %d/%d, want %d (FIFO-bounded)", len(q.acked), len(q.ackedOrder), maxAckedKeys)
	}
	if q.acked[sugKey("s1", "sug-0/0")] {
		t.Fatal("oldest key not evicted")
	}
	if !q.acked[sugKey("s1", fmt.Sprintf("sug-%d/0", maxAckedKeys+99))] {
		t.Fatal("newest key missing")
	}
}

// TestJanitorRaceLateReport races the expiry janitor against an in-flight
// report of the expiring lease (run under -race): whatever the interleaving,
// the evaluation lands exactly once, a racing re-grant of the same suggestion
// is acked as a duplicate, and no call errors out.
func TestJanitorRaceLateReport(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		q, sess, clock := newTestQueue(t, nil)
		p := sess.Problem()
		g := mustLease(t, q, "w1")
		ev := p.Evaluate(g.Suggestion.X, g.Suggestion.Fid)
		clock.Advance(11 * time.Second) // lease is past its deadline

		var (
			start    = make(chan struct{})
			wg       sync.WaitGroup
			mu       sync.Mutex
			nonDup   int
			reported = 1 // w1's report below
		)
		report := func(leaseID, key string) {
			ack, err := q.ReportCtx(context.Background(), "s1", leaseID, g.Suggestion.ID, key, ev)
			if err != nil {
				t.Errorf("iter %d: report: %v", iter, err)
				return
			}
			if !ack.Duplicate {
				mu.Lock()
				nonDup++
				mu.Unlock()
			}
		}
		wg.Add(3)
		go func() { // the janitor expires the lease…
			defer wg.Done()
			<-start
			q.Scan(clock.Now())
		}()
		go func() { // …while w1's report for it is in flight…
			defer wg.Done()
			<-start
			report(g.LeaseID, g.Suggestion.ID+"/0")
		}()
		go func() { // …and w2 races to pick up the requeued grant.
			defer wg.Done()
			<-start
			g2, err := q.Lease(context.Background(), "s1", "w2", 0, 0)
			if err != nil || g2.Suggestion.ID != g.Suggestion.ID {
				return // fresh work or no work; only the re-grant matters here
			}
			mu.Lock()
			reported++
			mu.Unlock()
			report(g2.LeaseID, g2.Suggestion.ID+"/1")
		}()
		close(start)
		wg.Wait()

		if nonDup != 1 {
			t.Fatalf("iter %d: %d non-duplicate acks across %d reports, want exactly 1", iter, nonDup, reported)
		}
		if got := sess.Status().Observations; got != 1 {
			t.Fatalf("iter %d: Observations = %d, want 1", iter, got)
		}
		q.Close()
	}
}

// TestForgetDropsSessionKeys: after several sessions are leased, reported,
// expired once and forgotten, none of their keys is left, another session's
// keys are untouched, and a retried report still fails at Resolve.
func TestForgetDropsSessionKeys(t *testing.T) {
	sessions := map[string]*session.Session{}
	for _, id := range []string{"s1", "s2", "s3", "s10"} {
		sess, err := session.Open(session.Config{
			Problem: testfunc.ConstrainedSynthetic(),
			Core:    core.Config{Budget: 8, InitLow: 8, InitHigh: 4},
			Seed:    17,
			Store:   storage.NewMem(storage.MemConfig{}),
			StoreID: id,
			Limiter: session.NewLimiter(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[id] = sess
	}
	errGone := errors.New("session deleted")
	var mu sync.Mutex
	clock := &fakeClock{now: time.Unix(1000, 0)}
	q, err := New(Config{
		Resolve: func(id string) (*session.Session, error) {
			mu.Lock()
			defer mu.Unlock()
			if s, ok := sessions[id]; ok {
				return s, nil
			}
			return nil, errGone
		},
		MaxInFlight: 3,
		LeaseTTL:    10 * time.Second,
		ScanEvery:   -1,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	ctx := context.Background()
	p := testfunc.ConstrainedSynthetic()
	last := map[string]*Grant{}
	for id := range sessions {
		for i := 0; i < 2; i++ {
			g, err := q.Lease(ctx, id, "w", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ev := p.Evaluate(g.Suggestion.X, g.Suggestion.Fid)
			if _, err := q.ReportCtx(ctx, id, g.LeaseID, g.Suggestion.ID, fmt.Sprintf("idem-%d", i), ev); err != nil {
				t.Fatal(err)
			}
			last[id] = g
		}
		if _, err := q.Lease(ctx, id, "w", 0, 0); err != nil { // expires below
			t.Fatal(err)
		}
	}
	clock.Advance(11 * time.Second)
	if n := q.Scan(clock.Now()); n != len(sessions) {
		t.Fatalf("Scan expired %d leases, want %d", n, len(sessions))
	}

	ownKeys := func(id string) (n int) {
		q.mu.Lock()
		defer q.mu.Unlock()
		prefix := id + "/"
		for _, set := range []map[string]bool{q.acked, q.told} {
			for k := range set {
				if strings.HasPrefix(k, prefix) {
					n++
				}
			}
		}
		for _, order := range [][]string{q.ackedOrder, q.toldOrder} {
			for _, k := range order {
				if strings.HasPrefix(k, prefix) {
					n++
				}
			}
		}
		for k := range q.attempts {
			if strings.HasPrefix(k, prefix) {
				n++
			}
		}
		if _, ok := q.depth[id]; ok {
			n++
		}
		return n
	}
	keep := ownKeys("s10")
	if keep == 0 {
		t.Fatal("the kept session left no keys to compare against")
	}
	for _, id := range []string{"s1", "s2", "s3"} {
		mu.Lock()
		delete(sessions, id)
		mu.Unlock()
		q.Forget(id)
		if n := ownKeys(id); n != 0 {
			t.Fatalf("session %s: %d keys left after Forget", id, n)
		}
		g := last[id]
		ev := p.Evaluate(g.Suggestion.X, g.Suggestion.Fid)
		if _, err := q.ReportCtx(ctx, id, g.LeaseID, g.Suggestion.ID, "idem-1", ev); !errors.Is(err, errGone) {
			t.Fatalf("session %s: retried report gave %v, want the Resolve error", id, err)
		}
	}
	if n := ownKeys("s10"); n != keep {
		t.Fatalf("kept session s10 has %d keys after the others were forgotten, want %d", n, keep)
	}
}
