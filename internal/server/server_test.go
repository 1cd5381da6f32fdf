package server_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testfunc"
)

// fastReq mirrors the fastCfg used by the core tests on the wire, so a remote
// session and an in-process core.Optimize resolve to the same core.Config.
func fastReq(name string, budget float64, seed int64) api.CreateSessionRequest {
	return api.CreateSessionRequest{
		Problem:      name,
		Seed:         seed,
		Budget:       budget,
		InitLow:      8,
		InitHigh:     4,
		MSPStarts:    6,
		MSPLocalIter: 25,
		GPMaxIter:    40,
	}
}

func fastCfg(budget float64) core.Config {
	return core.Config{
		Budget:    budget,
		InitLow:   8,
		InitHigh:  4,
		MSP:       optimize.MSPConfig{Starts: 6, LocalIter: 25},
		GPMaxIter: 40,
	}
}

// newTestServer boots a server over an httptest listener and returns a client
// for it.
func newTestServer(t testing.TB, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	cl := client.New(ts.URL, client.WithBackoff(time.Millisecond, 10*time.Millisecond))
	return srv, ts, cl
}

// fsStore opens the filesystem storage backend over dir, as mfbod does for
// -checkpoint-dir.
func fsStore(t testing.TB, dir string) *storage.FS {
	t.Helper()
	fs, err := storage.NewFS(storage.FSConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// driveToDone runs the session to completion with p as the local evaluator: it
// polls Suggest, evaluates each query through problem.EvaluateRich (failures
// become Failed observations, exactly like the in-process sanitation path),
// and posts the outcome back. A lost Observe acknowledgment is healed by the
// idempotent Suggest: no_pending_ask / tell_mismatch conflicts re-poll
// instead of failing. Returns the final status.
func driveToDone(ctx context.Context, c *client.Client, id string, p problem.Problem) (api.StatusReply, error) {
	for {
		sug, err := c.Suggest(ctx, id)
		if err != nil {
			return api.StatusReply{}, fmt.Errorf("suggest: %w", err)
		}
		if sug.Done {
			break
		}
		ev, everr := problem.EvaluateRich(p, sug.X, problem.Fidelity(sug.Fidelity))
		if everr != nil {
			ev.Failed = true
		}
		_, err = c.Observe(ctx, id, api.Observation{
			X:           sug.X,
			Fidelity:    sug.Fidelity,
			Objective:   ev.Objective,
			Constraints: ev.Constraints,
			Failed:      ev.Failed,
		})
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNoPendingAsk), errors.Is(err, core.ErrTellMismatch):
			// The suggestion was consumed concurrently or the ack was lost
			// after ingestion: re-sync off the idempotent Suggest.
		case errors.Is(err, core.ErrBudgetExhausted):
			// Terminal race between Suggest and Observe: the run completed.
		default:
			return api.StatusReply{}, fmt.Errorf("observe: %w", err)
		}
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return api.StatusReply{}, fmt.Errorf("status: %w", err)
	}
	return st, nil
}

func sameHistory(t *testing.T, hist []api.HistoryObservation, ref []core.Observation) {
	t.Helper()
	if len(hist) != len(ref) {
		t.Fatalf("history lengths differ: remote %d vs in-process %d", len(hist), len(ref))
	}
	for i := range hist {
		h, r := hist[i], ref[i]
		if h.Fidelity != int(r.Fid) || h.Iter != r.Iter || h.Failed != r.Eval.Failed {
			t.Fatalf("obs %d: metadata differs: %+v vs %+v", i, h, r)
		}
		for j := range h.X {
			if math.Float64bits(h.X[j]) != math.Float64bits(r.X[j]) {
				t.Fatalf("obs %d: x[%d] differs: %v vs %v", i, j, h.X[j], r.X[j])
			}
		}
		if math.Float64bits(h.Objective) != math.Float64bits(r.Eval.Objective) {
			t.Fatalf("obs %d: objective differs: %v vs %v", i, h.Objective, r.Eval.Objective)
		}
		for j := range h.Constraints {
			if math.Float64bits(h.Constraints[j]) != math.Float64bits(r.Eval.Constraints[j]) {
				t.Fatalf("obs %d: constraint %d differs", i, j)
			}
		}
		if math.Float64bits(h.CumCost) != math.Float64bits(r.CumCost) {
			t.Fatalf("obs %d: cumulative cost differs", i)
		}
	}
}

// TestRemoteTrajectoryMatchesInProcess is the headline acceptance test: a
// client-driven HTTP session reproduces the in-process core.Optimize
// trajectory bit-for-bit — every point, fidelity choice, objective,
// constraint value and cumulative cost — under the same seed. JSON float64
// round-tripping is exact, so nothing is lost on the wire.
func TestRemoteTrajectoryMatchesInProcess(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() problem.Problem
	}{
		{"forrester", func() problem.Problem { return testfunc.Forrester() }},
		{"constrained", func() problem.Problem { return testfunc.ConstrainedSynthetic() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := core.Optimize(tc.mk(), fastCfg(8), rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			_, _, cl := newTestServer(t, server.Config{})
			ctx := context.Background()
			info, err := cl.CreateSession(ctx, fastReq(tc.name, 8, 42))
			if err != nil {
				t.Fatal(err)
			}
			st, err := driveToDone(ctx, cl, info.ID, tc.mk())
			if err != nil {
				t.Fatal(err)
			}
			if st.Phase != "done" {
				t.Fatalf("remote run did not finish: %+v", st)
			}
			hist, err := cl.History(ctx, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			sameHistory(t, hist.Observations, ref.History)
			if math.Float64bits(st.BestObj) != math.Float64bits(ref.Best.Objective) {
				t.Fatalf("best objective differs: remote %v vs in-process %v", st.BestObj, ref.Best.Objective)
			}
		})
	}
}

// TestServerKillResume: a server killed mid-run (after a handful of
// observations) restarts over the same checkpoint directory, the client
// reattaches with resume, and the completed trajectory is bit-identical to an
// uninterrupted in-process run — the crash leaves no trace in the math.
func TestServerKillResume(t *testing.T) {
	ref, err := core.Optimize(testfunc.Forrester(), fastCfg(6), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()
	req := fastReq("forrester", 6, 9)
	req.ID = "kill-resume"

	// First server: evaluate 6 points, then die without ceremony.
	srv1, err := server.New(server.Config{Store: fsStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	cl1 := client.New(ts1.URL)
	if _, err := cl1.CreateSession(ctx, req); err != nil {
		t.Fatal(err)
	}
	p := testfunc.Forrester()
	for i := 0; i < 6; i++ {
		sug, err := cl1.Suggest(ctx, req.ID)
		if err != nil || sug.Done {
			t.Fatalf("suggest %d: done=%v err=%v", i, sug.Done, err)
		}
		ev := p.Evaluate(sug.X, problem.Fidelity(sug.Fidelity))
		if _, err := cl1.Observe(ctx, req.ID, api.Observation{
			X: sug.X, Fidelity: sug.Fidelity,
			Objective: ev.Objective, Constraints: ev.Constraints,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second server over the same directory: resume and run to completion.
	_, _, cl2 := newTestServer(t, server.Config{Store: fsStore(t, dir)})
	req.Resume = true
	info, err := cl2.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed {
		t.Fatal("reattach did not report resumed")
	}
	pre, err := cl2.History(ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.Observations) != 6 {
		t.Fatalf("restored session has %d observations, want 6", len(pre.Observations))
	}
	st, err := driveToDone(ctx, cl2, req.ID, testfunc.Forrester())
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != "done" {
		t.Fatalf("resumed run did not finish: %+v", st)
	}
	hist, err := cl2.History(ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameHistory(t, hist.Observations, ref.History)
}

// TestServerLazyRestoreWithoutResumeFlag: after a restart, plain requests
// against a persisted session id transparently restore it from disk — no
// explicit resume handshake required.
func TestServerLazyRestoreWithoutResumeFlag(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := fastReq("forrester", 6, 13)
	req.ID = "lazy"

	srv1, err := server.New(server.Config{Store: fsStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	cl1 := client.New(ts1.URL)
	if _, err := cl1.CreateSession(ctx, req); err != nil {
		t.Fatal(err)
	}
	p := testfunc.Forrester()
	sug, err := cl1.Suggest(ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Evaluate(sug.X, problem.Fidelity(sug.Fidelity))
	if _, err := cl1.Observe(ctx, req.ID, api.Observation{
		X: sug.X, Fidelity: sug.Fidelity, Objective: ev.Objective, Constraints: ev.Constraints,
	}); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, cl2 := newTestServer(t, server.Config{Store: fsStore(t, dir)})
	st, err := cl2.Status(ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Observations != 1 {
		t.Fatalf("lazy restore lost observations: %+v", st)
	}
}

// TestServerWithoutStoreRestoresEvicted: a server built without a Store
// persists into an in-memory one. healthz reports it as writable "mem"
// storage, an idle session the janitor evicted restores on its next touch
// with every observation, and only DELETE forgets it.
func TestServerWithoutStoreRestoresEvicted(t *testing.T) {
	_, ts, cl := newTestServer(t, server.Config{IdleTimeout: 40 * time.Millisecond})
	ctx := context.Background()
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Storage != "mem" || h.CheckpointWritable == nil || !*h.CheckpointWritable || h.CheckpointDir != "" {
		t.Fatalf("health = %+v", h)
	}

	req := fastReq("forrester", 6, 13)
	req.ID = "idle"
	if _, err := cl.CreateSession(ctx, req); err != nil {
		t.Fatal(err)
	}
	sug, err := cl.Suggest(ctx, req.ID)
	if err != nil {
		t.Fatal(err)
	}
	ev := testfunc.Forrester().Evaluate(sug.X, problem.Fidelity(sug.Fidelity))
	if _, err := cl.Observe(ctx, req.ID, api.Observation{X: sug.X, Fidelity: sug.Fidelity, Objective: ev.Objective}); err != nil {
		t.Fatal(err)
	}
	var ids api.SessionsReply
	for deadline := time.Now().Add(5 * time.Second); ; {
		if getJSON(t, ts, "/v1/sessions", &ids); len(ids.Sessions) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle session never evicted: %v", ids.Sessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := cl.Status(ctx, req.ID)
	if err != nil {
		t.Fatalf("evicted session did not restore: %v", err)
	}
	if st.Observations != 1 {
		t.Fatalf("restored session has %d observations, want 1", st.Observations)
	}
	if _, err := cl.CreateSession(ctx, req); !isStatus(err, 409, api.CodeConflict) {
		t.Fatalf("fresh create over a persisted session: %v", err)
	}

	if err := cl.Delete(ctx, req.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(ctx, req.ID); !isStatus(err, 404, api.CodeNotFound) {
		t.Fatalf("deleted session still answers: %v", err)
	}
}

// TestServerConcurrentSessions drives four sessions in parallel through one
// server — the race-detector workout for the registry, the per-session
// mutexes and the shared fit limiter.
func TestServerConcurrentSessions(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{MaxConcurrentFits: 2})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			info, err := cl.CreateSession(ctx, fastReq("forrester", 4, seed))
			if err != nil {
				errs <- err
				return
			}
			st, err := driveToDone(ctx, cl, info.ID, testfunc.Forrester())
			if err != nil {
				errs <- err
				return
			}
			if st.Phase != "done" {
				errs <- errors.New("session " + info.ID + " did not finish")
			}
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCreateBoundsInitDesign: creation draws every rung's whole
// Latin-hypercube design, so a design size above the documented 10000 per
// rung is refused with 400 before anything is allocated, on each rung. The
// search-effort fields, which size work at every suggest or lease, are
// refused one past their documented bounds too.
func TestCreateBoundsInitDesign(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	ctx := context.Background()
	for name, set := range map[string]func(*api.CreateSessionRequest){
		"init_low = 10001":       func(r *api.CreateSessionRequest) { r.InitLow = 10001 },
		"init_mid = 10001":       func(r *api.CreateSessionRequest) { r.InitMid = 10001 },
		"init_high = 10001":      func(r *api.CreateSessionRequest) { r.InitHigh = 10001 },
		"msp_starts = 1001":      func(r *api.CreateSessionRequest) { r.MSPStarts = 1001 },
		"msp_local_iter = 10001": func(r *api.CreateSessionRequest) { r.MSPLocalIter = 10001 },
		"gp_restarts = 101":      func(r *api.CreateSessionRequest) { r.GPRestarts = 101 },
		"gp_max_iter = 10001":    func(r *api.CreateSessionRequest) { r.GPMaxIter = 10001 },
		"batch = 1001":           func(r *api.CreateSessionRequest) { r.Batch = 1001 },
		"workers = 257":          func(r *api.CreateSessionRequest) { r.Workers = 257 },
	} {
		req := fastReq("forrester3", 5, 1)
		set(&req)
		if _, err := cl.CreateSession(ctx, req); !isStatus(err, 400, api.CodeBadRequest) {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := cl.CreateSession(ctx, fastReq("forrester3", 5, 1)); err != nil {
		t.Fatalf("in-bound request refused: %v", err)
	}
}

// TestServerAPIValidation covers the error surface of the HTTP API and the
// errors.Is mapping of wire codes back onto core sentinels.
func TestServerAPIValidation(t *testing.T) {
	_, ts, cl := newTestServer(t, server.Config{})
	ctx := context.Background()

	// Unknown session → 404.
	if _, err := cl.Status(ctx, "nope"); !isStatus(err, 404, api.CodeNotFound) {
		t.Fatalf("unknown session: %v", err)
	}
	// Bad budget → 400.
	if _, err := cl.CreateSession(ctx, api.CreateSessionRequest{Problem: "forrester"}); !isStatus(err, 400, api.CodeBadRequest) {
		t.Fatalf("zero budget: %v", err)
	}
	// Unknown problem → 400.
	if _, err := cl.CreateSession(ctx, fastReq("nonesuch", 5, 1)); !isStatus(err, 400, api.CodeBadRequest) {
		t.Fatalf("unknown problem: %v", err)
	}
	// Invalid explicit id → 400.
	bad := fastReq("forrester", 5, 1)
	bad.ID = "no/slashes"
	if _, err := cl.CreateSession(ctx, bad); !isStatus(err, 400, api.CodeBadRequest) {
		t.Fatalf("invalid id: %v", err)
	}

	req := fastReq("forrester", 5, 1)
	req.ID = "alpha"
	if _, err := cl.CreateSession(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Duplicate id without resume → 409.
	if _, err := cl.CreateSession(ctx, req); !isStatus(err, 409, api.CodeConflict) {
		t.Fatalf("duplicate id: %v", err)
	}
	// Tell without a pending ask → 409 mapping to core.ErrNoPendingAsk.
	_, err := cl.Observe(ctx, "alpha", api.Observation{X: []float64{0.5}, Objective: 1})
	if !isStatus(err, 409, api.CodeNoPendingAsk) || !errors.Is(err, core.ErrNoPendingAsk) {
		t.Fatalf("observe without ask: %v", err)
	}
	// Tell for the wrong point → 409 mapping to core.ErrTellMismatch.
	sug, err := cl.Suggest(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]float64(nil), sug.X...)
	wrong[0] += 0.25
	_, err = cl.Observe(ctx, "alpha", api.Observation{X: wrong, Fidelity: sug.Fidelity, Objective: 1})
	if !isStatus(err, 409, api.CodeTellMismatch) || !errors.Is(err, core.ErrTellMismatch) {
		t.Fatalf("mismatched observe: %v", err)
	}
	// The pending suggestion survives the rejected tell (idempotent suggest).
	again, err := cl.Suggest(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.X[0]) != math.Float64bits(sug.X[0]) {
		t.Fatal("rejected observe disturbed the pending suggestion")
	}

	// Catalog + liveness + listing.
	var probs api.ProblemsReply
	getJSON(t, ts, "/v1/problems", &probs)
	found := false
	for _, p := range probs.Problems {
		if p == "forrester" {
			found = true
		}
	}
	if !found {
		t.Fatalf("catalog missing forrester: %v", probs)
	}
	h, err := cl.Health(ctx)
	if err != nil || !h.OK || h.Sessions != 1 {
		t.Fatalf("health: %+v err=%v", h, err)
	}
	var ids api.SessionsReply
	if getJSON(t, ts, "/v1/sessions", &ids); len(ids.Sessions) != 1 || ids.Sessions[0] != "alpha" {
		t.Fatalf("sessions: %v", ids.Sessions)
	}

	// Delete → gone.
	if err := cl.Delete(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(ctx, "alpha"); !isStatus(err, 404, api.CodeNotFound) {
		t.Fatalf("deleted session still answers: %v", err)
	}
	if err := cl.Delete(ctx, "alpha"); !isStatus(err, 404, api.CodeNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// TestServerSuggestAfterDone: a finished session answers suggest with a
// terminal Done marker rather than an error.
func TestServerSuggestAfterDone(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, fastReq("forrester", 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveToDone(ctx, cl, info.ID, testfunc.Forrester()); err != nil {
		t.Fatal(err)
	}
	sug, err := cl.Suggest(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sug.Done || sug.Reason != api.CodeBudgetExhausted {
		t.Fatalf("terminal suggest: %+v", sug)
	}
}

// isStatus reports whether err is an *client.APIError with the given HTTP
// status and wire code.
func isStatus(err error, status int, code string) bool {
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Status == status && apiErr.Code == code
}

// countingStore counts the Gets that reach the wrapped store.
type countingStore struct {
	storage.Store
	gets atomic.Int64
}

func (c *countingStore) Get(kind storage.Kind, id string) ([]byte, error) {
	c.gets.Add(1)
	return c.Store.Get(kind, id)
}

// TestDeleteProbesStoreOnlyWhenNotLive: deleting a live session reads
// nothing from the store; a session that exists only in the store still
// answers 204 and is gone afterwards; an unknown one answers 404.
func TestDeleteProbesStoreOnlyWhenNotLive(t *testing.T) {
	store := &countingStore{Store: storage.NewMem(storage.MemConfig{})}
	ctx := context.Background()
	// A first server leaves "stored" behind in the store only.
	first, _, cl := newTestServer(t, server.Config{Store: store})
	req := fastReq("forrester", 6, 13)
	req.ID = "stored"
	if _, err := cl.CreateSession(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, cl = newTestServer(t, server.Config{Store: store})
	req.ID = "live"
	if _, err := cl.CreateSession(ctx, req); err != nil {
		t.Fatal(err)
	}
	before := store.gets.Load()
	if err := cl.Delete(ctx, "live"); err != nil {
		t.Fatal(err)
	}
	if n := store.gets.Load() - before; n != 0 {
		t.Fatalf("deleting a live session issued %d store Gets, want 0", n)
	}
	if err := cl.Delete(ctx, "stored"); err != nil {
		t.Fatalf("delete of a stored-only session: %v", err)
	}
	for _, id := range []string{"live", "stored"} {
		if _, err := cl.Status(ctx, id); !isStatus(err, 404, api.CodeNotFound) {
			t.Fatalf("deleted session %s still answers: %v", id, err)
		}
	}
	if err := cl.Delete(ctx, "unknown"); !isStatus(err, 404, api.CodeNotFound) {
		t.Fatalf("delete of an unknown session: %v", err)
	}
}
