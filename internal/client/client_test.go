package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
)

func fastClient(url string, retries int) *Client {
	return New(url, WithRetries(retries), WithBackoff(time.Microsecond, time.Millisecond))
}

// TestClientRetriesTransientFailures: 503s (a restarting server) are retried
// until the server comes back, transparently to the caller.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true,"sessions":0}`))
	}))
	defer ts.Close()

	h, err := fastClient(ts.URL, 4).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Fatalf("unexpected reply: %+v", h)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("expected 3 attempts, got %d", got)
	}
}

// TestClientRetriesConnectionRefused: a dead listener is a transport error,
// retried like a 503 — the client survives a server restart window.
func TestClientRetriesConnectionRefused(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	url := ts.URL
	ts.Close() // kill it: every attempt is refused

	_, err := fastClient(url, 2).Health(context.Background())
	if err == nil {
		t.Fatal("refused connection must eventually error")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Fatalf("transport error misreported as API error: %v", err)
	}
}

// TestClientDoesNotRetryPermanentErrors: a 4xx is the server's final word.
func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":"no ask","code":"no_pending_ask"}`))
	}))
	defer ts.Close()

	_, err := fastClient(ts.URL, 5).Health(context.Background())
	if err == nil {
		t.Fatal("conflict must surface as an error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("permanent error retried: %d attempts", got)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != api.CodeNoPendingAsk {
		t.Fatalf("wrong error: %v", err)
	}
	if !errors.Is(err, core.ErrNoPendingAsk) {
		t.Fatal("wire code did not unwrap to core.ErrNoPendingAsk")
	}
}

// TestAPIErrorUnwrapMapping: every wire code maps onto its core sentinel.
func TestAPIErrorUnwrapMapping(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{api.CodeBudgetExhausted, core.ErrBudgetExhausted},
		{api.CodeInterrupted, core.ErrInterrupted},
		{api.CodeNoPendingAsk, core.ErrNoPendingAsk},
		{api.CodeTellMismatch, core.ErrTellMismatch},
		{api.CodeResumeMismatch, core.ErrResumeMismatch},
		{api.CodeNoFeasible, core.ErrNoFeasible},
	}
	for _, tc := range cases {
		err := &APIError{Status: 409, Code: tc.code, Message: "x"}
		if !errors.Is(err, tc.want) {
			t.Errorf("code %s did not unwrap to %v", tc.code, tc.want)
		}
	}
	if errors.Is(&APIError{Status: 400, Code: api.CodeBadRequest}, core.ErrBudgetExhausted) {
		t.Error("unrelated code matched a sentinel")
	}
}

// TestClientBackoffSchedule: the exact sequence of sleeps the retry loop
// takes, per failure kind. wrong_owner replies stretch the wait to the
// server's lease hint (capped at BackoffMax); everything else follows the
// doubling schedule.
func TestClientBackoffSchedule(t *testing.T) {
	const (
		base = 10 * time.Millisecond
		max  = 80 * time.Millisecond
	)
	cases := []struct {
		name    string
		handler func(n int32, w http.ResponseWriter)
		want    []time.Duration
	}{
		{
			name: "503 doubles from base",
			handler: func(n int32, w http.ResponseWriter) {
				w.WriteHeader(http.StatusServiceUnavailable)
			},
			want: []time.Duration{base, 2 * base, 4 * base, max},
		},
		{
			name: "wrong_owner hint below backoff is ignored",
			handler: func(n int32, w http.ResponseWriter) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(api.StatusWrongOwner)
				_, _ = w.Write([]byte(`{"error":"owned elsewhere","code":"wrong_owner","owner":"rb","retry_after_seconds":0.001}`))
			},
			want: []time.Duration{base, 2 * base, 4 * base, max},
		},
		{
			name: "wrong_owner hint stretches the wait",
			handler: func(n int32, w http.ResponseWriter) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(api.StatusWrongOwner)
				_, _ = w.Write([]byte(`{"error":"owned elsewhere","code":"wrong_owner","owner":"rb","retry_after_seconds":0.05}`))
			},
			// The hint only ever stretches the wait; once the doubling
			// schedule overtakes it (attempt 3: 80ms > 50ms), backoff wins.
			want: []time.Duration{50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond, max},
		},
		{
			name: "wrong_owner hint is capped at BackoffMax",
			handler: func(n int32, w http.ResponseWriter) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(api.StatusWrongOwner)
				_, _ = w.Write([]byte(`{"error":"owned elsewhere","code":"wrong_owner","owner":"rb","retry_after_seconds":30}`))
			},
			want: []time.Duration{max, max, max, max},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.handler(calls.Add(1), w)
			}))
			defer ts.Close()

			cl := New(ts.URL, WithRetries(len(tc.want)), WithBackoff(base, max))
			var slept []time.Duration
			cl.sleep = func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			}
			if _, err := cl.Health(context.Background()); err == nil {
				t.Fatal("persistent failure must surface")
			}
			if len(slept) != len(tc.want) {
				t.Fatalf("slept %v, want %d waits", slept, len(tc.want))
			}
			for i, d := range slept {
				if d != tc.want[i] {
					t.Fatalf("sleep %d = %v, want %v (all: %v)", i, d, tc.want[i], tc.want)
				}
			}
		})
	}
}

// TestClientRetriesWrongOwner: a session mid-migration answers 421 a few
// times before the new owner claims it; the client rides it out transparently
// and surfaces the hints only if the budget runs dry.
func TestClientRetriesWrongOwner(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) <= 3 {
			w.WriteHeader(api.StatusWrongOwner)
			_, _ = w.Write([]byte(`{"error":"session owned by rb","code":"wrong_owner","owner":"rb","retry_after_seconds":0.001}`))
			return
		}
		_, _ = w.Write([]byte(`{"ok":true,"sessions":1}`))
	}))
	defer ts.Close()

	h, err := fastClient(ts.URL, 5).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Fatalf("unexpected reply: %+v", h)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("expected 4 attempts, got %d", got)
	}

	// Exhausted budget: the wrong_owner escapes with its routing hints intact.
	calls.Store(-100)
	_, err = fastClient(ts.URL, 1).Health(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != api.CodeWrongOwner {
		t.Fatalf("want wrong_owner, got %v", err)
	}
	if ae.Owner != "rb" || ae.RetryAfterSeconds != 0.001 {
		t.Fatalf("routing hints lost: %+v", ae)
	}
}

// TestClientSurvivesHandoffSequence: the full failure mix of a replica dying
// mid-handoff — 502 from a proxy, connection refused while the successor
// starts, wrong_owner while the lease ages out — then success.
func TestClientSurvivesHandoffSequence(t *testing.T) {
	var calls atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusBadGateway)
		case 2:
			// Slam the connection shut mid-request: the client sees a
			// transport error, same shape as connection-refused to a replica
			// that just died.
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
			w.WriteHeader(http.StatusBadGateway)
		case 3:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(api.StatusWrongOwner)
			_, _ = w.Write([]byte(`{"error":"owned by rc","code":"wrong_owner","owner":"rc","retry_after_seconds":0.001}`))
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"ok":true,"sessions":2}`))
		}
	}))
	defer proxy.Close()

	h, err := fastClient(proxy.URL, 6).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Sessions != 2 {
		t.Fatalf("unexpected reply: %+v", h)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("expected 4 attempts, got %d", got)
	}
}

// TestClientRetryRespectsContext: cancellation during backoff aborts the
// retry loop promptly.
func TestClientRetryRespectsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	cl := New(ts.URL, WithRetries(1000), WithBackoff(50*time.Millisecond, time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Health(ctx)
	if err == nil {
		t.Fatal("cancelled retry loop must error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored cancellation for %v", elapsed)
	}
}
