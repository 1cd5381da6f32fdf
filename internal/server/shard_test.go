package server_test

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/testfunc"
)

// newReplica boots one sharded replica over the shared store. No client
// retries here: these tests assert raw wire behavior (421s included).
func newReplica(t *testing.T, store storage.Store, id string, ttl time.Duration) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{Store: store, ReplicaID: id, OwnershipTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	return srv, ts
}

// drive answers suggestions with real evaluations until done or n
// observations were ingested (n < 0 = until done); returns observations made.
func drive(t *testing.T, ts *httptest.Server, id string, p problem.Problem, n int) int {
	t.Helper()
	made := 0
	for n < 0 || made < n {
		var sug api.Suggestion
		getJSON(t, ts, "/v1/sessions/"+id+"/suggest", &sug)
		if sug.Done {
			break
		}
		ev := p.Evaluate(sug.X, problem.Fidelity(sug.Fidelity))
		ob := api.Observation{X: sug.X, Fidelity: sug.Fidelity, Objective: ev.Objective, Constraints: ev.Constraints, Failed: ev.Failed}
		var rep api.ObserveReply
		postJSON(t, ts, "/v1/sessions/"+id+"/observations", ob, &rep)
		made++
		if rep.Done {
			break
		}
	}
	return made
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er api.ErrorReply
		_ = json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("GET %s: %d %+v", path, resp.StatusCode, er)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var er api.ErrorReply
		_ = json.NewDecoder(resp.Body).Decode(&er)
		t.Fatalf("POST %s: %d %+v", path, resp.StatusCode, er)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// rawStatus returns status code + error reply without failing on non-2xx.
func rawGet(t *testing.T, ts *httptest.Server, path string) (int, api.ErrorReply) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er api.ErrorReply
	_ = json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er
}

// TestShardedWrongOwner: a session claimed by replica A answers wrong_owner
// (421, with owner + retry hints) when its requests land on replica B.
func TestShardedWrongOwner(t *testing.T) {
	store := storage.NewMem(storage.MemConfig{})
	srvA, tsA := newReplica(t, store, "ra", time.Minute)
	defer func() { tsA.Close(); _ = srvA.Close() }()
	srvB, tsB := newReplica(t, store, "rb", time.Minute)
	defer func() { tsB.Close(); _ = srvB.Close() }()

	req := fastReq("forrester", 6, 1)
	req.ID = "shared-session"
	var info api.SessionInfo
	postJSON(t, tsA, "/v1/sessions", req, &info)

	code, er := rawGet(t, tsB, "/v1/sessions/shared-session/status")
	if code != api.StatusWrongOwner || er.Code != api.CodeWrongOwner {
		t.Fatalf("replica B answered %d %+v, want 421 wrong_owner", code, er)
	}
	if er.Owner != "ra" {
		t.Fatalf("wrong_owner names owner %q, want ra", er.Owner)
	}
	if er.RetryAfterSeconds <= 0 || er.RetryAfterSeconds > 61 {
		t.Fatalf("retry hint %v not within the lease TTL", er.RetryAfterSeconds)
	}
	// A fresh create for an owned session 421s too (resume or not).
	resp, err := tsB.Client().Post(tsB.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"id":"shared-session","problem":"forrester","budget":6,"resume":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != api.StatusWrongOwner {
		t.Fatalf("resume on replica B answered %d, want 421", resp.StatusCode)
	}
}

// TestShardedGracefulHandoff: replica A serves half the session, releases on
// Close, replica B claims instantly and finishes it — and the stitched
// trajectory is bit-identical to the unsharded in-process reference.
func TestShardedGracefulHandoff(t *testing.T) {
	ref, err := core.Optimize(testfunc.Forrester(), fastCfg(8), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}

	store := storage.NewMem(storage.MemConfig{})
	srvA, tsA := newReplica(t, store, "ra", time.Minute)
	req := fastReq("forrester", 8, 42)
	req.ID = "hand"
	var info api.SessionInfo
	postJSON(t, tsA, "/v1/sessions", req, &info)
	drive(t, tsA, "hand", testfunc.Forrester(), 6)
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// No TTL wait: the released lease is claimable immediately.
	srvB, tsB := newReplica(t, store, "rb", time.Minute)
	defer func() { tsB.Close(); _ = srvB.Close() }()
	drive(t, tsB, "hand", testfunc.Forrester(), -1)

	var hist api.HistoryReply
	getJSON(t, tsB, "/v1/sessions/hand/history", &hist)
	sameHistory(t, hist.Observations, ref.History)
}

// TestShardedKillHandoff: replica A is killed mid-session (no lease release,
// no final persist). Until the lease TTL lapses replica B answers
// wrong_owner; after it, B claims the session, restores the checkpoint that
// backed every acked observation, and converges bit-identically.
func TestShardedKillHandoff(t *testing.T) {
	ref, err := core.Optimize(testfunc.ConstrainedSynthetic(), fastCfg(8), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}

	const ttl = 300 * time.Millisecond
	store := storage.NewMem(storage.MemConfig{})
	srvA, tsA := newReplica(t, store, "ra", ttl)
	req := fastReq("constrained", 8, 7)
	req.ID = "kill"
	var info api.SessionInfo
	postJSON(t, tsA, "/v1/sessions", req, &info)
	drive(t, tsA, "kill", testfunc.ConstrainedSynthetic(), 7)
	srvA.Kill()
	tsA.Close()

	srvB, tsB := newReplica(t, store, "rb", ttl)
	defer func() { tsB.Close(); _ = srvB.Close() }()

	// The dead replica's lease must hold B off until it expires…
	if code, er := rawGet(t, tsB, "/v1/sessions/kill/status"); code != api.StatusWrongOwner {
		t.Fatalf("status before lease expiry answered %d %+v, want 421", code, er)
	}
	// …and admit B afterwards.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, er := rawGet(t, tsB, "/v1/sessions/kill/status")
		if code == http.StatusOK {
			break
		}
		if code != api.StatusWrongOwner {
			t.Fatalf("unexpected reply during takeover: %d %+v", code, er)
		}
		if time.Now().After(deadline) {
			t.Fatal("replica B never took the session over")
		}
		time.Sleep(ttl / 4)
	}
	drive(t, tsB, "kill", testfunc.ConstrainedSynthetic(), -1)

	var hist api.HistoryReply
	getJSON(t, tsB, "/v1/sessions/kill/history", &hist)
	sameHistory(t, hist.Observations, ref.History)
}

// TestShardedHealthz: each replica reports its own identity and its
// owned-session count, and nothing else about the deployment — membership
// is the gateway's view, built from these replies.
func TestShardedHealthz(t *testing.T) {
	store := storage.NewMem(storage.MemConfig{})
	srvA, tsA := newReplica(t, store, "ra", time.Minute)
	defer func() { tsA.Close(); _ = srvA.Close() }()
	srvB, tsB := newReplica(t, store, "rb", time.Minute)
	defer func() { tsB.Close(); _ = srvB.Close() }()

	var h api.HealthReply
	getJSON(t, tsB, "/v1/healthz", &h)
	if h.ReplicaID != "rb" || !h.OK {
		t.Fatalf("rb health = %+v", h)
	}
	getJSON(t, tsA, "/v1/healthz", &h)
	if h.ReplicaID != "ra" || !h.OK {
		t.Fatalf("ra health = %+v", h)
	}
	if h.OwnedSessions != 0 {
		t.Fatalf("owned = %d before any session", h.OwnedSessions)
	}
	var info api.SessionInfo
	postJSON(t, tsA, "/v1/sessions", fastReq("forrester", 4, 3), &info)
	var raw map[string]json.RawMessage
	getJSON(t, tsA, "/v1/healthz", &raw)
	if err := json.Unmarshal(raw["owned_sessions"], &h.OwnedSessions); err != nil || h.OwnedSessions != 1 {
		t.Fatalf("owned = %s after create", raw["owned_sessions"])
	}
	if _, ok := raw["ring"]; ok {
		t.Fatalf("replica healthz carries a ring view: %s", raw["ring"])
	}
}

// TestShardedDeleteRequiresOwnership: deleting a session another replica
// serves answers wrong_owner instead of destroying live state.
func TestShardedDeleteRequiresOwnership(t *testing.T) {
	store := storage.NewMem(storage.MemConfig{})
	srvA, tsA := newReplica(t, store, "ra", time.Minute)
	defer func() { tsA.Close(); _ = srvA.Close() }()
	srvB, tsB := newReplica(t, store, "rb", time.Minute)
	defer func() { tsB.Close(); _ = srvB.Close() }()

	req := fastReq("forrester", 4, 5)
	req.ID = "owned"
	var info api.SessionInfo
	postJSON(t, tsA, "/v1/sessions", req, &info)

	del, err := http.NewRequest(http.MethodDelete, tsB.URL+"/v1/sessions/owned", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tsB.Client().Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != api.StatusWrongOwner {
		t.Fatalf("delete on non-owner answered %d, want 421", resp.StatusCode)
	}
	// The owner still serves it.
	if code, _ := rawGet(t, tsA, "/v1/sessions/owned/status"); code != http.StatusOK {
		t.Fatalf("owner lost the session: %d", code)
	}
}
