package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/api"
	"repro/internal/server"
)

// FuzzWorkerBodies posts arbitrary bytes to the worker-facing routes — lease,
// report, heartbeat and observations — of a small forrester session. Every
// reply must be 2xx, or 4xx with an api.ErrorReply body, and the session's
// status must still answer afterwards. Each input runs against a fresh batch
// session holding one real lease; the placeholders $LEASE, $SUG and $X in the body are
// replaced by that lease's ID, suggestion ID and point, so fuzzed reports and
// observations get past the ID and point checks into the dispatch queue and
// the engine.
func FuzzWorkerBodies(f *testing.F) {
	seeds := []struct {
		route uint8
		body  string
	}{
		{0, `{"worker":"w1"}`},
		{0, `{"worker":"w1","ttl_seconds":30}`},
		{0, `{"worker":"w1","ttl_seconds":-1}`},
		{0, `{"ttl_seconds":1e300}`},
		{1, `{"lease_id":"$LEASE","suggestion_id":"$SUG","objective":1.5}`},
		{1, `{"lease_id":"$LEASE","suggestion_id":"$SUG","objective":1.5,"idempotency_key":"$SUG/0"}`},
		{1, `{"lease_id":"$LEASE","suggestion_id":"$SUG","failed":true}`},
		{1, `{"lease_id":"$LEASE","suggestion_id":"$SUG","objective":1,"constraints":[1,-2]}`},
		{1, `{"lease_id":"$LEASE","suggestion_id":"init-low-1","objective":1}`},
		{1, `{"lease_id":"l9.other.init-low-0","suggestion_id":"$SUG","objective":1}`},
		{1, `{"lease_id":"$LEASE","objective":1}`},
		{2, `{"worker":"w1"}`},
		{3, `{"x":$X,"fidelity":0,"objective":1.5}`},
		{3, `{"x":$X,"fidelity":1,"objective":1.5,"failed":true}`},
		{3, `{"x":[0.5],"fidelity":0,"objective":1}`},
		{3, `{"x":[0.5,0.5],"fidelity":7,"objective":1,"constraints":[1]}`},
		{3, `not json`},
		{3, ``},
	}
	for _, s := range seeds {
		f.Add(s.route, []byte(s.body))
	}
	_, ts, cl := newTestServer(f, server.Config{})
	ctx := context.Background()
	seq := 0
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		seq++
		req := fastReq("forrester", 6, 1)
		req.ID = fmt.Sprintf("fuzz-%d", seq)
		req.Batch = 2 // a fuzzed lease can take the second suggestion
		if _, err := cl.CreateSession(ctx, req); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := cl.Delete(ctx, req.ID); err != nil {
				t.Errorf("delete: %v", err)
			}
		}()
		grant, err := cl.Lease(ctx, req.ID, api.LeaseRequest{Worker: "fuzz"})
		if err != nil || grant.LeaseID == "" {
			t.Fatalf("lease: %+v, %v", grant, err)
		}
		x, err := json.Marshal(grant.X)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.ReplaceAll(body, []byte("$LEASE"), []byte(grant.LeaseID))
		body = bytes.ReplaceAll(body, []byte("$SUG"), []byte(grant.SuggestionID))
		body = bytes.ReplaceAll(body, []byte("$X"), x)

		path := [...]string{
			"/v1/sessions/" + req.ID + "/lease",
			"/v1/sessions/" + req.ID + "/report",
			"/v1/leases/" + grant.LeaseID + "/heartbeat",
			"/v1/sessions/" + req.ID + "/observations",
		}[route%4]
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch code := resp.StatusCode; {
		case code >= 200 && code < 300:
		case code >= 400 && code < 500:
			var e api.ErrorReply
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" || e.Code == "" {
				t.Fatalf("POST %s %q: %d reply is not an api error: %q", path, body, code, raw)
			}
		default:
			t.Fatalf("POST %s %q: status %d: %q", path, body, code, raw)
		}
		if _, err := cl.Status(ctx, req.ID); err != nil {
			t.Fatalf("status after POST %s %q: %v", path, body, err)
		}
	})
}

// FuzzCreateSession posts arbitrary bytes to POST /v1/sessions. Every reply
// must be 2xx, or 4xx with an api.ErrorReply body; a created session must
// answer status and delete cleanly. The committed corpus holds the
// unbounded init_low that allocated a two-billion-point design.
func FuzzCreateSession(f *testing.F) {
	for _, body := range []string{
		`{"problem":"forrester","budget":6,"init_low":8,"init_high":4,"msp_starts":4,"gp_max_iter":20}`,
		`{"problem":"forrester3","budget":4,"init_low":6,"init_mid":3,"init_high":3}`,
		`{"id":"fixed","problem":"pedagogical","seed":7,"budget":2,"batch":2,"fantasy":"constant-liar"}`,
		`{"problem":"forrester","budget":1,"resume":true}`,
		`{"problem":"forrester","budget":1,"fantasy":"oracle"}`,
		`{"problem":"forrester","budget":1,"init_high":10001}`,
		`{"problem":"forrester","budget":1,"msp_starts":2000000000,"gp_max_iter":2000000000,"batch":2000000000,"workers":2000000000}`,
		`{"problem":"forrester","budget":1,"low_rank_after":-1}`,
		`{"problem":"nope","budget":1}`,
		`{"problem":"forrester","budget":0}`,
		`{"problem":"forrester","budget":1,"id":"bad id!"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	_, ts, cl := newTestServer(f, server.Config{})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch code := resp.StatusCode; {
		case code >= 200 && code < 300:
			var info api.SessionInfo
			if err := json.Unmarshal(raw, &info); err != nil || info.ID == "" {
				t.Fatalf("create %q: %d reply is not a session: %q", body, code, raw)
			}
			if _, err := cl.Status(ctx, info.ID); err != nil {
				t.Fatalf("status after create %q: %v", body, err)
			}
			if err := cl.Delete(ctx, info.ID); err != nil {
				t.Fatalf("delete after create %q: %v", body, err)
			}
		case code >= 400 && code < 500:
			var e api.ErrorReply
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" || e.Code == "" {
				t.Fatalf("create %q: %d reply is not an api error: %q", body, code, raw)
			}
		default:
			t.Fatalf("create %q: status %d: %q", body, code, raw)
		}
	})
}
