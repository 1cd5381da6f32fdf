// Package gateway is the stateless HTTP front of a sharded deployment: it
// routes every /v1/sessions/* request (dispatch lease/report/heartbeat
// included) to the replica that owns the session, by consistent-hash ring
// lookup over the healthy-replica set.
//
// The gateway holds no session state and makes no placement decisions of its
// own — the ring is a pure function of (seed, healthy replicas, session ID),
// so any number of gateways route identically without coordination, and the
// ownership leases of internal/shard remain the single safety interlock. The
// gateway's job is liveness: it health-checks replicas, learns their
// self-reported IDs, rebuilds the ring as membership changes, and absorbs
// the two transients of a moving deployment so clients rarely see them:
//
//   - a dead replica (connection refused, 502/503/504): marked suspect on
//     the spot, the request retries against the ring successors;
//   - ownership movement (wrong_owner, HTTP 421): the reply names the owner
//     and how long its lease could still hold, so the gateway re-routes —
//     to the named owner when it is routable, otherwise back off and
//     re-resolve until the lease expires and a successor claims.
//
// Both retries burn one shared per-request budget (Config.RetryBudget);
// when it runs out the last upstream answer is relayed as-is, so a client
// still sees an honest wrong_owner/503 rather than a gateway timeout shape.
package gateway

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/buildinfo"
	"repro/internal/dispatch"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Config tunes a Gateway.
type Config struct {
	// Replicas are the base URLs of the backend replicas (required,
	// e.g. "http://10.0.0.1:8932"). Identities are learned from each
	// replica's /v1/healthz, not configured.
	Replicas []string
	// Ring tunes the consistent-hash ring. Ring.Seed must match across every
	// gateway of one deployment (replicas don't hash; they fence by lease).
	Ring shard.RingConfig
	// HealthEvery is the replica health-check period (default 500ms). One
	// probe may take min(HealthEvery, 2s).
	HealthEvery time.Duration
	// RetryBudget bounds the total time one request may spend retrying
	// across dead replicas and ownership movement (default 15s). It should
	// comfortably exceed the deployment's ownership-lease TTL, or failover
	// mid-request surfaces to clients as wrong_owner.
	RetryBudget time.Duration
	// Client performs the proxied requests (default: http.Client with no
	// overall timeout — suggests may legitimately wait on surrogate fits).
	Client *http.Client
	// Telemetry, when non-nil, registers the mfbo_gateway_* metrics into its
	// registry.
	Telemetry *telemetry.Recorder
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// replicaState is the gateway's live view of one backend.
type replicaState struct {
	url     string
	id      string // self-reported; "" until first successful probe
	healthy bool
}

// Gateway routes requests to session owners. Safe for concurrent use.
type Gateway struct {
	cfg     Config
	ring    *shard.Ring
	client  *http.Client
	mux     *http.ServeMux
	met     *gatewayMetrics
	tracer  *telemetry.Tracer
	started time.Time

	mu       sync.RWMutex
	replicas []*replicaState // configured order
	byID     map[string]*replicaState

	stop chan struct{}
	done chan struct{}
}

type gatewayMetrics struct {
	retries    *telemetry.Counter
	wrongOwner *telemetry.Counter
	suspects   *telemetry.Counter
	proxySecs  *telemetry.Histogram
	reqTotals  *telemetry.CounterVec
}

func newGatewayMetrics(reg *telemetry.Registry, g *Gateway) *gatewayMetrics {
	if reg == nil {
		return nil
	}
	m := &gatewayMetrics{
		retries:    reg.Counter("mfbo_gateway_retries_total", "forwards retried against another replica (dead backend or ownership movement)"),
		wrongOwner: reg.Counter("mfbo_gateway_wrong_owner_total", "wrong_owner replies received from replicas while routing"),
		suspects:   reg.Counter("mfbo_gateway_replica_suspected_total", "replicas marked suspect after a failed forward"),
		proxySecs:  reg.Histogram("mfbo_gateway_proxy_seconds", "end-to-end proxied request latency", nil),
		reqTotals:  reg.CounterVec("mfbo_gateway_requests_total", "requests routed by the gateway, by route and upstream status code", "route", "code"),
	}
	reg.GaugeFunc("mfbo_gateway_healthy_replicas", "backend replicas currently passing health checks", func() float64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		n := 0
		for _, r := range g.replicas {
			if r.healthy {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("mfbo_gateway_ring_size", "replicas on the routing ring", func() float64 {
		return float64(g.ring.Size())
	})
	return m
}

func (m *gatewayMetrics) request(route string, code int, dur time.Duration) {
	if m == nil {
		return
	}
	m.reqTotals.With(route, strconv.Itoa(code)).Inc()
	m.proxySecs.Observe(dur.Seconds())
}

// New builds the gateway and runs one synchronous health sweep so routing
// works as soon as it returns; the background checker keeps the view fresh
// until Close.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: at least one replica URL is required")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 500 * time.Millisecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 15 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	g := &Gateway{
		cfg:     cfg,
		ring:    shard.NewRing(cfg.Ring),
		client:  cfg.Client,
		started: time.Now(),
		byID:    make(map[string]*replicaState),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, u := range cfg.Replicas {
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		g.replicas = append(g.replicas, &replicaState{url: u})
	}
	if rec := cfg.Telemetry; rec != nil {
		g.met = newGatewayMetrics(rec.Registry(), g)
		g.tracer = rec.Tracer
	}
	g.sweep()
	go g.checker()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	mux.HandleFunc("GET /v1/sessions", g.handleList)
	mux.HandleFunc("/v1/sessions/{id}", g.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{verb}", g.handleSession)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", g.handleHeartbeat)
	mux.HandleFunc("GET /v1/problems", g.handleProblems)
	mux.HandleFunc("GET /v1/healthz", g.handleHealth)
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Close stops the health checker.
func (g *Gateway) Close() {
	select {
	case <-g.stop:
		return
	default:
	}
	close(g.stop)
	<-g.done
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// ---- health view ----

func (g *Gateway) checker() {
	defer close(g.done)
	tick := time.NewTicker(g.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.sweep()
		}
	}
}

// sweep probes every replica once and rebuilds the ring from the healthy set.
func (g *Gateway) sweep() {
	type result struct {
		r       *replicaState
		id      string
		healthy bool
	}
	g.mu.RLock()
	reps := append([]*replicaState(nil), g.replicas...)
	g.mu.RUnlock()
	results := make([]result, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *replicaState) {
			defer wg.Done()
			id, ok := g.probe(r.url)
			results[i] = result{r: r, id: id, healthy: ok}
		}(i, r)
	}
	wg.Wait()

	g.mu.Lock()
	for _, res := range results {
		if res.id != "" {
			res.r.id = res.id
			g.byID[res.id] = res.r
		}
		res.r.healthy = res.healthy
	}
	g.rebuildRingLocked()
	g.mu.Unlock()
}

// probe health-checks one replica; the ID is returned even from degraded
// (503) replies so the gateway can still name replicas it won't route to.
func (g *Gateway) probe(url string) (id string, healthy bool) {
	ctx, cancel := context.WithTimeout(context.Background(), min(g.cfg.HealthEvery, 2*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		return "", false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var h api.HealthReply
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h) != nil {
		return "", false
	}
	return h.ReplicaID, resp.StatusCode == http.StatusOK && h.OK
}

// rebuildRingLocked recomputes the routing ring from the healthy replicas
// that have reported an identity. Callers hold g.mu.
func (g *Gateway) rebuildRingLocked() {
	ids := make([]string, 0, len(g.replicas))
	for _, r := range g.replicas {
		if r.healthy && r.id != "" {
			ids = append(ids, r.id)
		}
	}
	g.ring.SetReplicas(ids)
}

// suspect marks a replica unroutable after a failed forward, without waiting
// for the next health sweep (which will rehabilitate it once it answers).
func (g *Gateway) suspect(url string) {
	g.mu.Lock()
	for _, r := range g.replicas {
		if r.url == url && r.healthy {
			r.healthy = false
			if g.met != nil {
				g.met.suspects.Inc()
			}
			g.logf("gateway: replica %s (%s) marked suspect", r.id, url)
		}
	}
	g.rebuildRingLocked()
	g.mu.Unlock()
}

// urlOf resolves a replica ID to its base URL if currently routable.
func (g *Gateway) urlOf(id string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r, ok := g.byID[id]
	if !ok || !r.healthy {
		return "", false
	}
	return r.url, true
}

// healthyURLs returns the routable replica base URLs, configured order.
func (g *Gateway) healthyURLs() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	urls := make([]string, 0, len(g.replicas))
	for _, r := range g.replicas {
		if r.healthy {
			urls = append(urls, r.url)
		}
	}
	return urls
}

// ownerURL resolves the session's preferred routable replica: the ring
// owner when routable, else the first routable ring successor.
func (g *Gateway) ownerURL(sessionID string) (string, bool) {
	for _, id := range g.ring.Owners(sessionID, g.ring.Size()) {
		if url, ok := g.urlOf(id); ok {
			return url, true
		}
	}
	// Ring empty (no identified healthy replica): any healthy URL.
	if urls := g.healthyURLs(); len(urls) > 0 {
		return urls[0], true
	}
	return "", false
}

// ---- forwarding ----

// upstream is one relayed reply.
type upstream struct {
	code   int
	header http.Header
	body   []byte
}

// tryOnce forwards the request body to one replica, stamping tc as the W3C
// traceparent when valid — every attempt, wrong_owner follow-ups included,
// carries the same trace so the replica-side spans join it. err != nil means
// the replica was unreachable (transport-level) — retryable against another.
func (g *Gateway) tryOnce(ctx context.Context, method, url, path, query, contentType string, body []byte, tc telemetry.TraceContext) (*upstream, error) {
	full := url + path
	if query != "" {
		full += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, full, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	tc.Inject(req.Header)
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &upstream{code: resp.StatusCode, header: resp.Header, body: data}, nil
}

// retryableStatus are upstream codes that mean "this replica cannot serve
// anyone right now" — worth a different replica, unlike e.g. a 409.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// startSpan begins the request's span: joining the caller's trace when the
// inbound request already carries a traceparent, else a locally sampled root
// — the gateway is where most fleet traces are born. May return nil (tracing
// off or unsampled); every use below is nil-safe.
func (g *Gateway) startSpan(r *http.Request, name string) *telemetry.Span {
	if tc, ok := telemetry.Extract(r.Header); ok {
		return g.tracer.StartRemote(name, tc)
	}
	if g.tracer.Enabled() {
		return g.tracer.Start(name)
	}
	return nil
}

// forwardSession routes one session-keyed request: ring owner first, then
// wrong_owner redirects and dead-replica failover until the retry budget
// runs out, at which point the last upstream reply (or 503) is relayed.
// The whole routing episode is one span; every forward attempt carries its
// trace context so replica spans assemble under it.
func (g *Gateway) forwardSession(w http.ResponseWriter, r *http.Request, route, sessionID string, body []byte) {
	start := time.Now()
	span := g.startSpan(r, "gateway."+route)
	tc := span.Context()
	retries := 0
	finish := func(code int) {
		span.Attr("code", float64(code))
		span.Attr("retries", float64(retries))
		span.End()
		g.met.request(route, code, time.Since(start))
	}
	deadline := start.Add(g.cfg.RetryBudget)
	var last *upstream
	target, ok := g.ownerURL(sessionID)
	for time.Now().Before(deadline) {
		if !ok {
			// No routable replica at all right now: wait for the health
			// sweep to find one rather than failing fast mid-failover.
			if !g.sleep(r.Context(), g.cfg.HealthEvery) {
				finish(http.StatusBadGateway)
				return
			}
			target, ok = g.ownerURL(sessionID)
			continue
		}
		up, err := g.tryOnce(r.Context(), r.Method, target, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body, tc)
		switch {
		case err != nil:
			// Replica gone mid-request: suspect it and fail over. The
			// request may have half-executed there, but every mutating
			// endpoint is idempotent-or-conflict by design, so replay
			// against the successor is safe.
			if r.Context().Err() != nil {
				finish(http.StatusBadGateway)
				return // client hung up; nothing to answer
			}
			g.suspect(target)
		case up.code == api.StatusWrongOwner:
			last = up
			if g.met != nil {
				g.met.wrongOwner.Inc()
			}
			var er api.ErrorReply
			_ = json.Unmarshal(up.body, &er)
			if next, okOwner := g.urlOf(er.Owner); okOwner && next != target {
				// The replica told us who owns the session; go there.
				target = next
				retries++
				if g.met != nil {
					g.met.retries.Inc()
				}
				continue
			}
			// Owner unknown or unroutable (likely dead and its lease still
			// ticking): wait a beat, then re-resolve. The sleep honors the
			// replica's hint but stays responsive for short CI TTLs.
			pause := 150 * time.Millisecond
			if er.RetryAfterSeconds > 0 {
				hinted := time.Duration(er.RetryAfterSeconds * float64(time.Second))
				if hinted < pause {
					pause = hinted
				}
			}
			if !g.sleep(r.Context(), pause) {
				finish(http.StatusBadGateway)
				return
			}
		case retryableStatus(up.code):
			last = up
			g.suspect(target)
		default:
			g.relay(w, up)
			finish(up.code)
			return
		}
		retries++
		if g.met != nil {
			g.met.retries.Inc()
		}
		target, ok = g.ownerURL(sessionID)
	}
	if last != nil {
		g.relay(w, last)
		finish(last.code)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "gateway: no routable replica")
	finish(http.StatusServiceUnavailable)
}

// sleep waits without outliving the request; false when the client hung up.
func (g *Gateway) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-g.stop:
		return false
	case <-t.C:
		return true
	}
}

func (g *Gateway) relay(w http.ResponseWriter, up *upstream) {
	if ct := up.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(up.code)
	_, _ = w.Write(up.body)
}

// ---- handlers ----

// handleCreate assigns the session ID when absent — placement is a function
// of the ID, so it must exist before routing — then forwards the (re-encoded)
// create to the owner.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<22)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.ID == "" {
		req.ID = newID()
	}
	body, err := json.Marshal(&req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	g.forwardSession(w, r, "create", req.ID, body)
}

// handleSession routes every /v1/sessions/{id}[/{verb}] request by ring
// lookup on the session ID.
func (g *Gateway) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	route := r.PathValue("verb")
	if route == "" {
		route = "session"
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<22))
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	g.forwardSession(w, r, route, id, body)
}

// handleHeartbeat routes a lease heartbeat. Lease IDs embed their session
// (dispatch.SessionOfLease), so the common case rides the ring like any
// session request; unparseable tokens fall back to asking every healthy
// replica (first 2xx wins — at most one replica knows the lease).
func (g *Gateway) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	leaseID := r.PathValue("id")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if sessionID, ok := dispatch.SessionOfLease(leaseID); ok {
		g.forwardSession(w, r, "heartbeat", sessionID, body)
		return
	}
	start := time.Now()
	span := g.startSpan(r, "gateway.heartbeat")
	tc := span.Context()
	var last *upstream
	for _, url := range g.healthyURLs() {
		up, err := g.tryOnce(r.Context(), r.Method, url, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body, tc)
		if err != nil {
			g.suspect(url)
			continue
		}
		last = up
		if up.code/100 == 2 {
			break
		}
	}
	if last == nil {
		writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "gateway: no routable replica")
		span.Attr("code", http.StatusServiceUnavailable)
		span.End()
		g.met.request("heartbeat", http.StatusServiceUnavailable, time.Since(start))
		return
	}
	g.relay(w, last)
	span.Attr("code", float64(last.code))
	span.End()
	g.met.request("heartbeat", last.code, time.Since(start))
}

// handleList merges the live-session lists of every healthy replica.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	seen := make(map[string]bool)
	for _, url := range g.healthyURLs() {
		up, err := g.tryOnce(r.Context(), http.MethodGet, url, "/v1/sessions", "", "", nil, telemetry.TraceContext{})
		if err != nil || up.code != http.StatusOK {
			continue // partial views are fine for a listing
		}
		var reply api.SessionsReply
		if json.Unmarshal(up.body, &reply) != nil {
			continue
		}
		for _, id := range reply.Sessions {
			seen[id] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, api.SessionsReply{Sessions: ids})
	g.met.request("list", http.StatusOK, time.Since(start))
}

// handleProblems relays the catalog from any healthy replica.
func (g *Gateway) handleProblems(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	for _, url := range g.healthyURLs() {
		up, err := g.tryOnce(r.Context(), http.MethodGet, url, "/v1/problems", "", "", nil, telemetry.TraceContext{})
		if err != nil {
			g.suspect(url)
			continue
		}
		g.relay(w, up)
		g.met.request("problems", up.code, time.Since(start))
		return
	}
	writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "gateway: no routable replica")
	g.met.request("problems", http.StatusServiceUnavailable, time.Since(start))
}

// handleHealth reports the gateway's own liveness and routing view.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	reps := make([]api.GatewayReplica, 0, len(g.replicas))
	anyHealthy := false
	for _, rep := range g.replicas {
		reps = append(reps, api.GatewayReplica{ID: rep.id, URL: rep.url, Healthy: rep.healthy})
		anyHealthy = anyHealthy || rep.healthy
	}
	g.mu.RUnlock()
	reply := api.GatewayHealthReply{
		OK:            anyHealthy,
		UptimeSeconds: time.Since(g.started).Seconds(),
		Version:       buildinfo.Version(),
		Replicas:      reps,
		Ring:          g.ring.Replicas(),
	}
	status := http.StatusOK
	if !reply.OK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, reply)
}

// newID mirrors the server's session-ID scheme; the gateway mints IDs for
// anonymous creates so placement is decided before the request leaves it.
func newID() string {
	b := make([]byte, 8)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("gateway: crypto/rand: %v", err))
	}
	return "s" + hex.EncodeToString(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.ErrorReply{Error: msg, Code: code})
}
