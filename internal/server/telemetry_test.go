package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/testfunc"
)

// TestServerTelemetryEndpointAndMetrics drives one session on an instrumented
// server and checks the two introspection surfaces: the per-session event
// ring at /v1/sessions/{id}/telemetry and the shared metrics registry the
// daemon exposes at /metrics.
func TestServerTelemetryEndpointAndMetrics(t *testing.T) {
	rec := telemetry.NewRecorder(nil, 1)
	_, ts, cl := newTestServer(t, server.Config{Telemetry: rec, EventRingSize: 256})
	ctx := context.Background()

	info, err := cl.CreateSession(ctx, fastReq("pedagogical", 8, 31))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveToDone(ctx, cl, info.ID, testfunc.Pedagogical()); err != nil {
		t.Fatal(err)
	}

	// Session event ring over the wire.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry status = %d", resp.StatusCode)
	}
	var reply api.TelemetryReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.ID != info.ID || len(reply.Events) == 0 {
		t.Fatalf("telemetry reply: id=%q events=%d", reply.ID, len(reply.Events))
	}
	var runs, iters int
	for _, raw := range reply.Events {
		var ev telemetry.Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("undecodable event %s: %v", raw, err)
		}
		switch {
		case ev.Run != nil:
			runs++
		case ev.Iteration != nil:
			iters++
		}
	}
	if runs != 1 || iters == 0 {
		t.Fatalf("event stream: %d run, %d iteration events", runs, iters)
	}

	// Unknown session → 404, not an empty reply.
	resp2, err := http.Get(ts.URL + "/v1/sessions/nope/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-session telemetry status = %d", resp2.StatusCode)
	}

	// The shared registry saw the HTTP layer and the optimizer.
	var b strings.Builder
	if err := rec.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, want := range []string{
		`mfbo_http_requests_total{code="200",route="suggest"}`,
		`mfbo_http_requests_total{code="201",route="create"}`,
		"mfbo_http_request_seconds_bucket",
		"mfbo_sessions_created_total 1",
		"mfbo_sessions_live",
		"mfbo_fit_slots",
		"mfbo_iterations_total",
		`mfbo_evaluations_total{fidelity="high"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exposition)
		}
	}
}

// TestServerTracePropagation checks the distributed-tracing middleware: a
// request carrying a W3C traceparent gets its server-side work — request
// span, engine spans, lease handling — joined to the caller's trace, and the
// lease reply relays the trace context onward for workers.
func TestServerTracePropagation(t *testing.T) {
	ring := telemetry.NewRing(4096)
	rec := telemetry.NewRecorder(ring, 1)
	_, ts, cl := newTestServer(t, server.Config{Telemetry: rec, EventRingSize: 256})
	ctx := context.Background()

	req := fastReq("pedagogical", 8, 33)
	req.Batch = 1
	info, err := cl.CreateSession(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	tc, ok := telemetry.ParseTraceparent(parent)
	if !ok {
		t.Fatal("test traceparent invalid")
	}
	do := func(method, path, body string) *http.Response {
		t.Helper()
		hreq, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("traceparent", parent)
		if body != "" {
			hreq.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := do(http.MethodPost, "/v1/sessions/"+info.ID+"/lease", `{"worker":"w0"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease status = %d", resp.StatusCode)
	}
	var lease api.LeaseReply
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if lease.None || lease.Done {
		t.Fatalf("lease reply: %+v", lease)
	}
	// The lease relays the request's trace so the worker's evaluation span
	// joins it.
	ltc, ok := telemetry.ParseTraceparent(lease.TraceParent)
	if !ok {
		t.Fatalf("lease TraceParent %q does not parse", lease.TraceParent)
	}
	if ltc.TraceHi != tc.TraceHi || ltc.TraceLo != tc.TraceLo {
		t.Fatalf("lease trace %s, want %s", ltc.TraceID(), tc.TraceID())
	}

	// Reporting the evaluation runs the Tell-side engine work synchronously
	// under the same trace.
	report, err := json.Marshal(api.ReportRequest{
		LeaseID:        lease.LeaseID,
		SuggestionID:   lease.SuggestionID,
		Objective:      1.5,
		IdempotencyKey: lease.SuggestionID + "/0",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp3 := do(http.MethodPost, "/v1/sessions/"+info.ID+"/report", string(report))
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", resp3.StatusCode)
	}

	// Process-stream spans: the request spans continue the caller's trace and
	// parent on the caller's span; engine work nests beneath them.
	names := map[string]bool{}
	for _, ev := range ring.Snapshot() {
		if ev.Span == nil || ev.Span.Trace != tc.TraceID() {
			continue
		}
		names[ev.Span.Name] = true
		if strings.HasPrefix(ev.Span.Name, "server.") && ev.Span.Parent != tc.SpanID {
			t.Fatalf("%s parent = %016x, want caller's %016x", ev.Span.Name, ev.Span.Parent, tc.SpanID)
		}
	}
	for _, want := range []string{"server.lease", "server.report", "engine.tell"} {
		if !names[want] {
			t.Fatalf("no %q span joined trace %s (got %v)", want, tc.TraceID(), names)
		}
	}

	// A request without a traceparent starts a fresh local root — the server
	// must not refuse or mis-join untraced traffic.
	resp2, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("untraced status = %d", resp2.StatusCode)
	}
}

// TestServerTelemetryDisabled checks the endpoint degrades gracefully when
// the ring is disabled (EventRingSize < 0) and that an uninstrumented server
// keeps working without a Telemetry recorder.
func TestServerTelemetryDisabled(t *testing.T) {
	_, ts, cl := newTestServer(t, server.Config{EventRingSize: -1})
	ctx := context.Background()
	info, err := cl.CreateSession(ctx, fastReq("forrester", 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply api.TelemetryReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Events) != 0 || reply.Dropped != 0 {
		t.Fatalf("disabled ring returned %d events", len(reply.Events))
	}
}

// TestHealthzExtended checks the readiness facts: session count, uptime, fit
// slots, the checkpoint directory taken from the fs store, and its write
// probe flipping the endpoint to 503 when the directory disappears.
func TestHealthzExtended(t *testing.T) {
	dir := t.TempDir() + "/ckpts"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, ts, cl := newTestServer(t, server.Config{Store: fsStore(t, dir)})
	ctx := context.Background()

	if _, err := cl.CreateSession(ctx, fastReq("forrester", 6, 6)); err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Sessions != 1 || h.UptimeSeconds < 0 || h.FitSlots < 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.CheckpointDir != dir || h.CheckpointWritable == nil || !*h.CheckpointWritable {
		t.Fatalf("checkpoint probe = %+v", h)
	}

	// Losing the checkpoint directory flips readiness to 503 with OK=false.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status after losing dir = %d", resp.StatusCode)
	}
	var bad api.HealthReply
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		t.Fatal(err)
	}
	if bad.OK || bad.CheckpointWritable == nil || *bad.CheckpointWritable {
		t.Fatalf("unwritable probe = %+v", bad)
	}

	// Restore the directory so the shutdown persistence in Cleanup succeeds.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
}
