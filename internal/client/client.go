// Package client is the typed Go consumer of the optimization service
// (internal/server): a thin HTTP wrapper over the JSON API of internal/api.
//
// Transient transport failures (connection refused, 429/502/503/504) are
// retried with the capped exponential backoff of internal/robust, so a client
// survives server restarts mid-run: the server restores the session from its
// checkpoint and the retried request lands on the recovered state.
// Server-side errors surface as *APIError, whose Unwrap maps wire codes back
// onto the typed sentinels of internal/core — errors.Is(err,
// core.ErrBudgetExhausted) works identically for in-process and remote runs.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/telemetry"
)

// APIError is a non-2xx reply from the server.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // api.Code* wire code ("" when the body was not an ErrorReply)
	Message string
	// Owner and RetryAfterSeconds carry the routing hints of wrong_owner
	// replies (sharded deployments): which replica holds the session's
	// ownership lease and its remaining TTL. Zero-valued otherwise.
	Owner             string
	RetryAfterSeconds float64
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// Unwrap maps wire codes back onto the typed sentinels of internal/core so
// errors.Is works across the wire.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case api.CodeBudgetExhausted:
		return core.ErrBudgetExhausted
	case api.CodeInterrupted:
		return core.ErrInterrupted
	case api.CodeNoPendingAsk:
		return core.ErrNoPendingAsk
	case api.CodeTellMismatch:
		return core.ErrTellMismatch
	case api.CodeResumeMismatch:
		return core.ErrResumeMismatch
	case api.CodeNoFeasible:
		return core.ErrNoFeasible
	case api.CodeUnknownSuggestion:
		return core.ErrUnknownSuggestion
	default:
		return nil
	}
}

// IsLeaseExpired reports whether err is the server telling a worker its lease
// is gone (expired and requeued, completed elsewhere, or lost in a server
// restart): drop the work unit and lease afresh.
func IsLeaseExpired(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == api.CodeLeaseExpired
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the transport (default http.DefaultClient).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetries sets how many times a transient failure is retried (default 4;
// 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff shapes the retry schedule (defaults to the robust.Policy
// defaults: 10ms base doubling up to 1s).
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		c.policy.BackoffBase = base
		c.policy.BackoffMax = max
	}
}

// Client talks to one optimization server.
type Client struct {
	base    string
	http    *http.Client
	retries int
	policy  robust.Policy
	sleep   func(context.Context, time.Duration) error
}

// New builds a client for the server at baseURL (e.g. "http://127.0.0.1:8932").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		http:    http.DefaultClient,
		retries: 4,
		policy:  robust.Policy{BackoffBase: 10 * time.Millisecond, BackoffMax: time.Second},
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether the request should be retried: network-level
// failures, the transient HTTP statuses a restarting or overloaded server
// emits, and wrong_owner (421) — a session mid-migration between sharded
// replicas lands on its new owner once the old lease expires.
func retryable(status int, err error) bool {
	if err != nil {
		return true // transport error (refused, reset, EOF, …)
	}
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout,
		api.StatusWrongOwner:
		return true
	}
	return false
}

// do issues one JSON request with retries and decodes the 2xx body into out
// (ignored when nil). Non-2xx replies become *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		status, data, err := c.once(ctx, method, path, body)
		if err == nil && status/100 == 2 {
			if out == nil || len(data) == 0 {
				return nil
			}
			return json.Unmarshal(data, out)
		}
		if err == nil {
			apiErr := &APIError{Status: status, Message: http.StatusText(status)}
			var rep api.ErrorReply
			if jsonErr := json.Unmarshal(data, &rep); jsonErr == nil && rep.Error != "" {
				apiErr.Code, apiErr.Message = rep.Code, rep.Error
				apiErr.Owner, apiErr.RetryAfterSeconds = rep.Owner, rep.RetryAfterSeconds
			}
			lastErr = apiErr
		} else {
			lastErr = err
		}
		if attempt >= c.retries || !retryable(status, err) {
			return lastErr
		}
		delay := robust.Backoff(attempt, c.policy)
		// wrong_owner replies hint how long the blocking lease could still
		// hold; waiting that out (capped by the backoff ceiling so a long
		// production TTL can't stall a request for seconds per attempt) beats
		// hammering a replica that cannot take the session over yet.
		var ae *APIError
		if errors.As(lastErr, &ae) && ae.Code == api.CodeWrongOwner && ae.RetryAfterSeconds > 0 {
			if hint := time.Duration(ae.RetryAfterSeconds * float64(time.Second)); hint > delay {
				delay = hint
			}
			if c.policy.BackoffMax > 0 && delay > c.policy.BackoffMax {
				delay = c.policy.BackoffMax
			}
		}
		if err := c.sleep(ctx, delay); err != nil {
			return errors.Join(err, lastErr)
		}
	}
}

// once performs a single HTTP round trip.
func (c *Client) once(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Forward the caller's trace (if any) on every attempt, so retried
	// requests stay attributed to the same distributed trace.
	telemetry.SpanFromContext(ctx).Context().Inject(req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// CreateSession opens (or with req.Resume reattaches to) a session.
func (c *Client) CreateSession(ctx context.Context, req api.CreateSessionRequest) (api.SessionInfo, error) {
	var info api.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info)
	return info, err
}

// Suggest polls the next query. It is idempotent until the matching Observe.
func (c *Client) Suggest(ctx context.Context, id string) (api.Suggestion, error) {
	var sug api.Suggestion
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/suggest", nil, &sug)
	return sug, err
}

// Observe reports the outcome of the pending suggestion.
func (c *Client) Observe(ctx context.Context, id string, ob api.Observation) (api.ObserveReply, error) {
	var rep api.ObserveReply
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/observations", ob, &rep)
	return rep, err
}

// Status summarizes the session.
func (c *Client) Status(ctx context.Context, id string) (api.StatusReply, error) {
	var st api.StatusReply
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/status", nil, &st)
	return st, err
}

// History fetches the full observation log.
func (c *Client) History(ctx context.Context, id string) (api.HistoryReply, error) {
	var h api.HistoryReply
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id)+"/history", nil, &h)
	return h, err
}

// Delete evicts and forgets the session (including its persisted files).
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// Health checks server liveness.
func (c *Client) Health(ctx context.Context) (api.HealthReply, error) {
	var h api.HealthReply
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// Lease asks the session's dispatch queue for one evaluation to perform.
// Inspect the reply's None/Done flags before using the lease fields.
func (c *Client) Lease(ctx context.Context, id string, req api.LeaseRequest) (api.LeaseReply, error) {
	var rep api.LeaseReply
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/lease", req, &rep)
	return rep, err
}

// Report posts the outcome of a leased evaluation (keyed by suggestion ID, so
// reports may arrive out of order within the batch).
func (c *Client) Report(ctx context.Context, id string, req api.ReportRequest) (api.ReportReply, error) {
	var rep api.ReportReply
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/report", req, &rep)
	return rep, err
}

// Heartbeat keeps a lease alive mid-evaluation; IsLeaseExpired on the error
// tells the worker to abandon the unit.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) (api.HeartbeatReply, error) {
	var rep api.HeartbeatReply
	err := c.do(ctx, http.MethodPost, "/v1/leases/"+url.PathEscape(leaseID)+"/heartbeat", api.HeartbeatRequest{}, &rep)
	return rep, err
}
