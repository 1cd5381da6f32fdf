// Package server exposes optimization sessions over a JSON/HTTP API — the
// service face of the MFBO engine. External evaluators create a session,
// poll it for suggestions, run the (SPICE-class) simulations on their own
// infrastructure, and post the outcomes back:
//
//	POST   /v1/sessions                    create / resume a session
//	GET    /v1/sessions                    list live sessions
//	GET    /v1/sessions/{id}/suggest       next query (idempotent until told)
//	POST   /v1/sessions/{id}/observations  report an evaluation
//	GET    /v1/sessions/{id}/status        progress summary
//	GET    /v1/sessions/{id}/history       full observation log
//	DELETE /v1/sessions/{id}               evict and forget a session
//	GET    /v1/problems                    problem catalog
//	GET    /v1/healthz                     liveness
//
// Distributed evaluation fleets use the lease-based dispatch queue instead of
// suggest/observe (see internal/dispatch for the lease state machine):
//
//	POST   /v1/sessions/{id}/lease         lease one evaluation to a worker
//	POST   /v1/sessions/{id}/report        report a leased evaluation
//	POST   /v1/leases/{id}/heartbeat       keep a lease alive mid-evaluation
//
// The registry is concurrency-bounded: sessions serialize their own engine
// behind a per-session mutex, and a global session.Limiter caps how many
// sessions may run their surrogate-fit pipeline at once. Every session is
// persisted through the pluggable storage engine (internal/storage;
// Config.Store, in memory when unset) after every ingested observation; a
// server restarted over the same state restores sessions lazily on first
// touch, so a killed deployment resumes exactly where its checkpoints left
// off — rolling back past torn or corrupt snapshot generations when the
// store detects them. Idle sessions are persisted and evicted from memory by
// a janitor and restore the same way, and Close drains the registry through
// one final persistence pass.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/buildinfo"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/fidelity"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Config tunes the service.
type Config struct {
	// Store is the durability engine every session's state (checkpoints,
	// manifests, telemetry rings) is persisted through — see internal/storage
	// for the crash-consistency contract; a storage.FS store's directory is
	// what healthz reports as checkpoint_dir. nil selects a fresh
	// storage.NewMem: sessions survive eviction but not a restart.
	Store storage.Store
	// IdleTimeout evicts sessions untouched for this long from memory
	// (after persisting them; they restore lazily on next touch). 0 disables
	// eviction.
	IdleTimeout time.Duration
	// MaxConcurrentFits bounds sessions running their surrogate-fit
	// pipeline simultaneously; 0 selects parallel.DefaultWorkers().
	MaxConcurrentFits int
	// MaxSessions rejects new sessions beyond this many live ones
	// (0 = unbounded).
	MaxSessions int
	// Lookup resolves problem names; nil selects catalog.Lookup.
	Lookup func(name string) (problem.Problem, error)
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, is the process-wide recorder: HTTP and
	// session metrics register into its registry (exposed by cmd/mfbod at
	// /metrics), and every session's event stream also flows into its sink.
	// Independent of it, each session keeps a bounded in-memory event ring
	// served at GET /v1/sessions/{id}/telemetry.
	Telemetry *telemetry.Recorder
	// EventRingSize bounds each session's in-memory event ring
	// (default 512; < 0 disables per-session rings).
	EventRingSize int
	// Dispatch tunes the lease-based work queue behind the lease/report/
	// heartbeat endpoints (see dispatch.Config). Resolve, Telemetry and Now
	// are supplied by the server; the remaining fields (MaxInFlight,
	// LeaseTTL, MaxAttempts, ScanEvery, ...) default sensibly when zero.
	Dispatch dispatch.Config
	// ReplicaID identifies this process as one replica of a horizontally
	// sharded deployment. Setting it (together with a Store shared by every
	// replica) turns on session-ownership leases: sessions
	// are claimed before being served, renewed while resident, fenced on
	// every checkpoint write, and requests for sessions owned elsewhere
	// answer wrong_owner (HTTP 421). Empty = unsharded single-node service.
	// See internal/shard and DESIGN.md §13.
	ReplicaID string
	// OwnershipTTL is the session-ownership lease duration (default 5s).
	// Shorter TTLs migrate sessions off dead replicas faster at the cost of
	// more lease-renewal writes. Sharded deployments only.
	OwnershipTTL time.Duration
}

// Server is the HTTP handler plus its session registry.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	limiter *session.Limiter
	started time.Time
	met     *serverMetrics
	queue   *dispatch.Queue
	// store is the durability engine: Config.Store, or an in-memory one.
	store storage.Store
	// baseCtx scopes engine calls made on behalf of HTTP requests to the
	// server's lifetime instead of the request's. A session is shared state:
	// if the request context reached the engine, one worker hanging up
	// mid-lease would trip the engine's interrupt path and poison the
	// session terminal (every later lease answered "done") until a restart.
	// The chaos harness (internal/torture) found exactly that.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// leases is non-nil only in sharded deployments (Config.ReplicaID
	// set): the session-ownership leases. See shard.go for the glue.
	leases *shard.Leases

	mu       sync.RWMutex
	sessions map[string]*entry
	closed   bool

	janitorStop chan struct{}
	janitorDone chan struct{}
	renewStop   chan struct{}
	renewDone   chan struct{}
}

// entry pairs a live session with the request that created it (needed to
// rebuild its config on restore and to answer status queries) and its
// telemetry ring (nil when rings are disabled).
type entry struct {
	sess *session.Session
	req  api.CreateSessionRequest
	ring *telemetry.Ring
	// epoch is the ownership-lease epoch this replica serves the session
	// under (0 when unsharded). Stable for the entry's lifetime: renewals
	// keep the epoch, only ownership changes bump it.
	epoch uint64
}

// serverMetrics caches the service-level metric handles. All fields are nil
// (and every use a no-op) when Config.Telemetry carries no registry.
type serverMetrics struct {
	reg       *telemetry.Registry
	inFlight  *telemetry.Gauge
	created   *telemetry.Counter
	restored  *telemetry.Counter
	evicted   *telemetry.Counter
	deleted   *telemetry.Counter
	reqSecs   map[string]*telemetry.Histogram // keyed by route
	reqTotals *telemetry.CounterVec           // labeled route/code, cached handles
}

func newServerMetrics(reg *telemetry.Registry, s *Server) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		reg:      reg,
		inFlight: reg.Gauge("mfbo_http_in_flight_requests", "HTTP requests currently being served"),
		created:  reg.Counter("mfbo_sessions_created_total", "sessions created fresh"),
		restored: reg.Counter("mfbo_sessions_restored_total", "sessions restored from checkpoints (restart/eviction recovery)"),
		evicted:  reg.Counter("mfbo_sessions_evicted_total", "idle sessions persisted and evicted from memory"),
		deleted:  reg.Counter("mfbo_sessions_deleted_total", "sessions deleted by clients"),
		reqSecs:  make(map[string]*telemetry.Histogram),
		reqTotals: reg.CounterVec("mfbo_http_requests_total",
			"HTTP requests served by route and status code", "route", "code"),
	}
	reg.GaugeFunc("mfbo_sessions_live", "sessions currently resident in memory", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.sessions))
	})
	reg.GaugeFunc("mfbo_fit_slots", "surrogate-fit limiter capacity", func() float64 {
		return float64(s.limiter.Cap())
	})
	reg.GaugeFunc("mfbo_fit_slots_in_use", "surrogate-fit limiter slots held", func() float64 {
		return float64(s.limiter.InUse())
	})
	reg.GaugeFunc("mfbo_fit_slots_waiting", "goroutines waiting for a fit slot", func() float64 {
		return float64(s.limiter.Waiting())
	})
	return m
}

// inflight moves the in-flight gauge (nil-safe, for trace-only servers).
func (m *serverMetrics) inflight(delta float64) {
	if m == nil {
		return
	}
	m.inFlight.Add(delta)
}

// request records one served request into the middleware metrics.
func (m *serverMetrics) request(route string, code int, dur time.Duration) {
	if m == nil {
		return
	}
	m.reqTotals.With(route, strconv.Itoa(code)).Inc()
	if h := m.reqSecs[route]; h != nil {
		h.Observe(dur.Seconds())
	}
}

// statusRecorder captures the response code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route handler with request accounting and distributed
// tracing: an inbound W3C traceparent header continues the caller's trace
// (malformed headers degrade to a fresh root, never an error), otherwise a
// locally sampled root starts here. The server span rides the request
// context so handlers can thread it into the engine. With telemetry fully
// off it returns h unchanged, so the uninstrumented server serves
// identically to previous releases.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	var tracer *telemetry.Tracer
	if s.cfg.Telemetry != nil {
		tracer = s.cfg.Telemetry.Tracer
	}
	if s.met == nil && tracer == nil {
		return h
	}
	if s.met != nil {
		s.met.reqSecs[route] = s.met.reg.Histogram(
			"mfbo_http_request_seconds", "request latency by route", nil, "route", route)
	}
	name := "server." + route
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inflight(1)
		// A remote continuation is created even when this replica has no span
		// sink of its own: the span still carries the trace downstream (into
		// engine context and lease replies) for processes that do record.
		var span *telemetry.Span
		if tc, ok := telemetry.Extract(r.Header); ok {
			span = tracer.StartRemote(name, tc)
		} else if tracer.Enabled() {
			span = tracer.Start(name)
		}
		if span != nil {
			r = r.WithContext(telemetry.ContextWithSpan(r.Context(), span))
		}
		sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(sr, r)
		s.met.inflight(-1)
		span.Attr("code", float64(sr.code))
		span.End()
		s.met.request(route, sr.code, time.Since(start))
	}
}

// engineCtx builds the context handlers pass into engine-touching calls:
// s.baseCtx for lifetime (the session outlives any one client; only server
// shutdown interrupts the engine) carrying the request's trace span for
// latency attribution. Allocation-free when the request is untraced.
func (s *Server) engineCtx(r *http.Request) context.Context {
	return telemetry.ContextWithSpan(s.baseCtx, telemetry.SpanFromContext(r.Context()))
}

// New builds the server. Sessions persisted by a previous process are NOT
// loaded eagerly — they restore lazily on first touch.
func New(cfg Config) (*Server, error) {
	if cfg.Lookup == nil {
		cfg.Lookup = catalog.Lookup
	}
	store := cfg.Store
	if store == nil {
		if cfg.ReplicaID != "" {
			return nil, errors.New("server: ReplicaID requires a Store shared by every replica")
		}
		store = storage.NewMem(storage.MemConfig{})
	}
	s := &Server{
		cfg:         cfg,
		store:       store,
		limiter:     session.NewLimiter(cfg.MaxConcurrentFits),
		started:     time.Now(),
		sessions:    make(map[string]*entry),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		renewStop:   make(chan struct{}),
		renewDone:   make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.ReplicaID != "" {
		leases, err := shard.NewLeases(shard.LeaseConfig{Store: store, Replica: cfg.ReplicaID, TTL: cfg.OwnershipTTL})
		if err != nil {
			return nil, err
		}
		s.leases = leases
	}
	s.met = newServerMetrics(cfg.Telemetry.Registry(), s)
	qcfg := cfg.Dispatch
	qcfg.Resolve = func(id string) (*session.Session, error) {
		e, err := s.getSession(id)
		if err != nil {
			return nil, err
		}
		return e.sess, nil
	}
	qcfg.Telemetry = cfg.Telemetry
	queue, err := dispatch.New(qcfg)
	if err != nil {
		return nil, err
	}
	s.queue = queue
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.instrument("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}/suggest", s.instrument("suggest", s.handleSuggest))
	mux.HandleFunc("POST /v1/sessions/{id}/observations", s.instrument("observe", s.handleObserve))
	mux.HandleFunc("GET /v1/sessions/{id}/status", s.instrument("status", s.handleStatus))
	mux.HandleFunc("GET /v1/sessions/{id}/history", s.instrument("history", s.handleHistory))
	mux.HandleFunc("GET /v1/sessions/{id}/telemetry", s.instrument("telemetry", s.handleTelemetry))
	mux.HandleFunc("POST /v1/sessions/{id}/lease", s.instrument("lease", s.handleLease))
	mux.HandleFunc("POST /v1/sessions/{id}/report", s.instrument("report", s.handleReport))
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.instrument("heartbeat", s.handleHeartbeat))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("GET /v1/problems", s.instrument("problems", s.handleProblems))
	mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealth))
	s.mux = mux
	if cfg.IdleTimeout > 0 {
		go s.janitor()
	} else {
		close(s.janitorDone)
	}
	if s.sharded() {
		go s.renewer()
	} else {
		close(s.renewDone)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close persists every live session and stops the janitor. Call it after
// http.Server.Shutdown has drained in-flight requests (fits included).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	entries := make([]*entry, 0, len(s.sessions))
	ids := make([]string, 0, len(s.sessions))
	for id, e := range s.sessions {
		entries = append(entries, e)
		ids = append(ids, id)
	}
	s.mu.Unlock()
	s.baseCancel()
	close(s.janitorStop)
	<-s.janitorDone
	close(s.renewStop)
	<-s.renewDone
	s.queue.Close()

	var errs []error
	for i, e := range entries {
		if err := e.sess.Persist(); err != nil {
			errs = append(errs, err)
		}
		s.persistRing(ids[i], e)
		// After the final persist the lease is surrendered so the session's
		// next owner claims it immediately instead of waiting out the TTL.
		s.releaseOwned(ids[i], e)
	}
	return errors.Join(errs...)
}

// Kill abandons the registry without persisting anything — the simulated
// SIGKILL of the in-process torture harness (cmd/mfbo-chaos sends the real
// signal). Whatever the storage engine holds at this instant is exactly
// what a restarted server will see; a dead process gets no goodbye writes.
// The HTTP listener, if any, must be torn down separately.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.sessions = make(map[string]*entry)
	s.mu.Unlock()
	s.baseCancel()
	close(s.janitorStop)
	<-s.janitorDone
	close(s.renewStop)
	<-s.renewDone
	s.queue.Close()
}

// janitor periodically persists and evicts idle sessions.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := time.NewTicker(s.cfg.IdleTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.evictIdle(time.Now().Add(-s.cfg.IdleTimeout))
		}
	}
}

// evictIdle persists and drops sessions untouched since the deadline.
func (s *Server) evictIdle(deadline time.Time) {
	s.mu.Lock()
	var victims []*entry
	var ids []string
	for id, e := range s.sessions {
		if e.sess.LastUsed().Before(deadline) {
			victims = append(victims, e)
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	for i, e := range victims {
		if s.met != nil {
			s.met.evicted.Inc()
		}
		if err := e.sess.Persist(); err != nil {
			s.logf("server: persist evicted session %s: %v", ids[i], err)
		} else {
			s.logf("server: evicted idle session %s", ids[i])
		}
		s.persistRing(ids[i], e)
	}
}

// ---- persistence layout ----

// saveManifest durably records the creation request so a restarted server
// can rebuild the session config. A create is acknowledged only after this
// succeeds — an acked session ID must survive a crash.
func (s *Server) saveManifest(id string, req *api.CreateSessionRequest) error {
	data, err := json.MarshalIndent(req, "", " ")
	if err != nil {
		return err
	}
	return s.store.Put(storage.KindManifest, id, data)
}

func (s *Server) loadManifest(id string) (*api.CreateSessionRequest, error) {
	data, err := s.store.Get(storage.KindManifest, id)
	if err != nil {
		return nil, err
	}
	req := &api.CreateSessionRequest{}
	if err := json.Unmarshal(data, req); err != nil {
		return nil, fmt.Errorf("server: corrupt session manifest %s: %w", id, err)
	}
	return req, nil
}

// persistRing saves the session's buffered telemetry events (best-effort:
// introspection should survive a restart, but never block one).
func (s *Server) persistRing(id string, e *entry) {
	if e.ring == nil {
		return
	}
	events := e.ring.Snapshot()
	if len(events) == 0 {
		return
	}
	data, err := json.Marshal(events)
	if err != nil {
		return
	}
	if err := s.store.Put(storage.KindTelemetry, id, data); err != nil {
		s.logf("server: persist telemetry ring %s: %v", id, err)
	}
}

// restoreRing refills a fresh ring with the events persisted before the
// last eviction/shutdown, so /telemetry keeps its history across restarts.
func (s *Server) restoreRing(id string, ring *telemetry.Ring) {
	data, err := s.store.Get(storage.KindTelemetry, id)
	if err != nil {
		return
	}
	var events []telemetry.Event
	if err := json.Unmarshal(data, &events); err != nil {
		return
	}
	for i := range events {
		ring.Emit(events[i])
	}
}

// ---- session construction ----

// CoreConfig maps the tuning fields of a creation request onto the engine
// config the session runs with. In-process reference runs that must match a
// served session bit for bit build their config here.
func CoreConfig(req api.CreateSessionRequest) core.Config {
	return core.Config{
		Budget:        req.Budget,
		InitLow:       req.InitLow,
		InitHigh:      req.InitHigh,
		InitMid:       req.InitMid,
		Gamma:         req.Gamma,
		MSP:           optimize.MSPConfig{Starts: req.MSPStarts, LocalIter: req.MSPLocalIter},
		GPRestarts:    req.GPRestarts,
		GPMaxIter:     req.GPMaxIter,
		RefitEvery:    req.RefitEvery,
		Incremental:   req.Incremental,
		NLMLTrigger:   req.NLMLTrigger,
		LowRankAfter:  req.LowRankAfter,
		MaxLowData:    req.MaxLowData,
		MaxIterations: req.MaxIterations,
		Workers:       req.Workers,
		Fantasy:       core.FantasyStrategy(req.Fantasy),
	}
}

// buildSession instantiates (or restores, when its checkpoint exists) the
// session described by req. Each session gets its own bounded event ring
// (served at /v1/sessions/{id}/telemetry); when the server carries a
// process-wide recorder the session's events and metrics also flow into it.
func (s *Server) buildSession(id string, req *api.CreateSessionRequest, epoch uint64) (*entry, error) {
	p, err := s.cfg.Lookup(req.Problem)
	if err != nil {
		return nil, err
	}
	var ring *telemetry.Ring
	size := s.cfg.EventRingSize
	if size == 0 {
		size = 512
	}
	if size > 0 {
		ring = telemetry.NewRing(size)
		s.restoreRing(id, ring)
	}
	cc := CoreConfig(*req)
	if ring != nil || s.cfg.Telemetry != nil {
		cc.Telemetry = s.cfg.Telemetry.Child(ring)
	}
	sess, err := session.Open(session.Config{
		Problem: p,
		Core:    cc,
		Seed:    req.Seed,
		// Sharded replicas persist through a lease-fenced store so a stale
		// ex-owner can never clobber the new owner's checkpoints (shard.go).
		Store:   s.sessionStore(id, epoch),
		StoreID: id,
		Limiter: s.limiter,
	})
	if err != nil {
		return nil, err
	}
	return &entry{sess: sess, req: *req, ring: ring, epoch: epoch}, nil
}

// getSession resolves id, lazily restoring a persisted session after a
// restart or eviction.
func (s *Server) getSession(id string) (*entry, error) {
	s.mu.RLock()
	e, ok := s.sessions[id]
	closed := s.closed
	s.mu.RUnlock()
	if ok {
		return e, nil
	}
	if closed {
		return nil, errShuttingDown
	}
	req, err := s.loadManifest(id)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return nil, errNotFound
		}
		return nil, err
	}
	// Sharded: become the owner before restoring. A session owned by a live
	// replica fails here with *shard.WrongOwnerError → wrong_owner on the
	// wire; one whose owner died is claimed once the old lease expires, and
	// the restore below IS the migration (checkpoints are ground truth).
	epoch, err := s.claimOwnership(id)
	if err != nil {
		return nil, err
	}
	fresh, err := s.buildSession(id, req, epoch)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errShuttingDown
	}
	if e, ok := s.sessions[id]; ok { // lost the race: use the winner
		return e, nil
	}
	s.sessions[id] = fresh
	if s.met != nil {
		s.met.restored.Inc()
	}
	s.logf("server: restored session %s (problem %s)", id, req.Problem)
	return fresh, nil
}

var (
	errNotFound     = errors.New("server: session not found")
	errShuttingDown = errors.New("server: shutting down")
)

func newID() string {
	b := make([]byte, 8)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return "s" + hex.EncodeToString(b)
}

func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// ---- handlers ----

// maxInitDesign bounds each rung's initialization design in a creation
// request. Creating a session draws the whole Latin-hypercube design, so an
// unbounded size is a memory bomb; 10000 points per rung is far above the
// largest design this repository runs (80).
const maxInitDesign = 10000

// Upper bounds on the search-effort fields of a creation request. Each field
// sizes work done at every suggest or lease — MSP starts and their local
// L-BFGS iterations, GP restarts and their iterations, outstanding batch
// suggestions with their fantasies, hot-path goroutines — so an unbounded
// value lets one request allocate or spin without limit long after creation
// answered 201. Each bound is far above the largest value this repository
// runs: the engine defaults (MSP 20 starts × 60 iterations, one GP restart of
// 60 iterations), batch 3 and 2 workers.
const (
	maxMSPStarts    = 1000
	maxMSPLocalIter = 10000
	maxGPRestarts   = 100
	maxGPMaxIter    = 10000
	maxBatch        = 1000
	maxWorkers      = 256
)

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.Budget <= 0 {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "budget must be positive")
		return
	}
	if max(req.InitLow, req.InitMid, req.InitHigh) > maxInitDesign {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("init_low, init_mid and init_high must not exceed %d", maxInitDesign))
		return
	}
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"msp_starts", req.MSPStarts, maxMSPStarts},
		{"msp_local_iter", req.MSPLocalIter, maxMSPLocalIter},
		{"gp_restarts", req.GPRestarts, maxGPRestarts},
		{"gp_max_iter", req.GPMaxIter, maxGPMaxIter},
		{"batch", req.Batch, maxBatch},
		{"workers", req.Workers, maxWorkers},
	} {
		if f.val > f.max {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("%s must not exceed %d", f.name, f.max))
			return
		}
	}
	id := req.ID
	if id == "" {
		if req.Resume {
			writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "resume requires an explicit session id")
			return
		}
		id = newID()
	} else if !validID(id) {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "session id must be 1-64 chars of [A-Za-z0-9_-]")
		return
	}
	req.ID = id

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "server is shutting down")
		return
	}
	if _, exists := s.sessions[id]; exists && !req.Resume {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, api.CodeConflict, "session "+id+" already exists")
		return
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		if _, exists := s.sessions[id]; !exists {
			s.mu.Unlock()
			writeErr(w, http.StatusTooManyRequests, api.CodeConflict, "session limit reached")
			return
		}
	}
	s.mu.Unlock()

	resumed := false
	var e *entry
	if req.Resume {
		// Reattach: live session wins, then a persisted one.
		if live, err := s.getSession(id); err == nil {
			e, resumed = live, true
		} else if !errors.Is(err, errNotFound) {
			s.writeSessionErr(w, err)
			return
		}
	} else if _, err := s.store.Get(storage.KindManifest, id); err == nil {
		// Fresh create must not silently adopt stale persisted state.
		writeErr(w, http.StatusConflict, api.CodeConflict,
			"session "+id+" exists in storage; pass resume or delete it first")
		return
	}
	createdFresh := false
	if e == nil {
		epoch, err := s.claimOwnership(id)
		if err != nil {
			s.writeSessionErr(w, err)
			return
		}
		fresh, err := s.buildSession(id, &req, epoch)
		if err != nil {
			s.writeSessionErr(w, err)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "server is shutting down")
			return
		}
		if live, ok := s.sessions[id]; ok {
			if !req.Resume {
				s.mu.Unlock()
				writeErr(w, http.StatusConflict, api.CodeConflict, "session "+id+" already exists")
				return
			}
			e, resumed = live, true
		} else {
			s.sessions[id] = fresh
			e = fresh
			createdFresh = true
			if s.met != nil {
				s.met.created.Inc()
			}
		}
		s.mu.Unlock()
	}
	if err := s.saveManifest(id, &e.req); err != nil {
		// A create acked without a durable manifest would vanish on restart:
		// fail the request instead, and un-register the half-born session so
		// a retry can succeed.
		if createdFresh {
			s.mu.Lock()
			if s.sessions[id] == e {
				delete(s.sessions, id)
			}
			s.mu.Unlock()
		}
		s.logf("server: save manifest %s: %v", id, err)
		writeErr(w, http.StatusInternalServerError, api.CodeInternal,
			"persist session manifest: "+err.Error())
		return
	}
	s.logf("server: session %s created (problem %s, budget %g, seed %d, resumed %v)",
		id, e.req.Problem, e.req.Budget, e.req.Seed, resumed)

	p := e.sess.Problem()
	lo, hi := p.Bounds()
	info := api.SessionInfo{
		ID:             id,
		Problem:        p.Name(),
		Dim:            p.Dim(),
		NumConstraints: p.NumConstraints(),
		BoundsLo:       lo,
		BoundsHi:       hi,
		CostLow:        p.Cost(problem.Low),
		CostHigh:       p.Cost(problem.High),
		Rungs:          problem.NumFidelities(p),
		Budget:         e.req.Budget,
		Seed:           e.req.Seed,
		Resumed:        resumed,
	}
	if ladder, err := fidelity.OfProblem(p); err == nil {
		info.RungCosts = ladder.Costs()
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, api.SessionsReply{Sessions: ids})
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	e, err := s.getSession(r.PathValue("id"))
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	// engineCtx (s.baseCtx + trace span), not r.Context(): the session
	// outlives any one client, so only server shutdown may interrupt the
	// engine (see Server.baseCtx).
	sug, err := e.sess.Ask(s.engineCtx(r))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, api.Suggestion{X: sug.X, Fidelity: int(sug.Fid), Iter: sug.Iter})
	case errors.Is(err, core.ErrBudgetExhausted):
		writeJSON(w, http.StatusOK, api.Suggestion{Done: true, Reason: api.CodeBudgetExhausted})
	case errors.Is(err, core.ErrInterrupted) && s.baseCtx.Err() == nil:
		writeJSON(w, http.StatusOK, api.Suggestion{Done: true, Reason: api.CodeInterrupted})
	case errors.Is(err, s.baseCtx.Err()), errors.Is(err, core.ErrInterrupted):
		// Server shutting down mid-ask; the conn is being torn down anyway.
		writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "server shutting down")
	default:
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.getSession(id)
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	var ob api.Observation
	if err := json.NewDecoder(r.Body).Decode(&ob); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	ev := problem.Evaluation{Objective: ob.Objective, Constraints: ob.Constraints, Failed: ob.Failed}
	err = e.sess.TellCtx(s.engineCtx(r), ob.X, problem.Fidelity(ob.Fidelity), ev)
	switch {
	case err == nil:
		st := e.sess.Status()
		writeJSON(w, http.StatusOK, api.ObserveReply{Cost: st.Cost, Budget: st.Budget, Done: st.Phase == "done"})
	case errors.Is(err, core.ErrNoPendingAsk):
		writeErr(w, http.StatusConflict, api.CodeNoPendingAsk, err.Error())
	case errors.Is(err, core.ErrTellMismatch):
		writeErr(w, http.StatusConflict, api.CodeTellMismatch, err.Error())
	case errors.Is(err, core.ErrBudgetExhausted):
		writeErr(w, http.StatusConflict, api.CodeBudgetExhausted, err.Error())
	default:
		// Includes the lease fence tripping mid-Tell on a sharded replica
		// (wrong_owner): the checkpoint was refused, so the observation was
		// NOT ingested — the client must retry against the new owner.
		s.writeSessionErr(w, err)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.getSession(id)
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	st := e.sess.Status()
	writeJSON(w, http.StatusOK, api.StatusReply{
		ID:           id,
		Problem:      e.req.Problem,
		Phase:        st.Phase,
		Iter:         st.Iter,
		Cost:         st.Cost,
		Budget:       st.Budget,
		NumLow:       st.NumLow,
		NumHigh:      st.NumHigh,
		NumFailed:    st.NumFailed,
		Observations: st.Observations,
		HasBest:      st.HasBest,
		BestX:        st.BestX,
		BestObj:      st.Best.Objective,
		BestCons:     st.Best.Constraints,
		Feasible:     st.Feasible,
		Degradations: st.Degradations,
		Interrupted:  st.Interrupted,
	})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.getSession(id)
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	hist := e.sess.History()
	obs := make([]api.HistoryObservation, len(hist))
	for i, h := range hist {
		obs[i] = api.HistoryObservation{
			Iter:        h.Iter,
			X:           h.X,
			Fidelity:    int(h.Fid),
			Objective:   h.Eval.Objective,
			Constraints: h.Eval.Constraints,
			Failed:      h.Eval.Failed,
			CumCost:     h.CumCost,
		}
	}
	writeJSON(w, http.StatusOK, api.HistoryReply{ID: id, Observations: obs})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Sharded: only the owner may destroy a session — a replica that merely
	// believes an old ring view must not delete state another replica is
	// actively serving from.
	if s.sharded() {
		if _, err := s.leases.Claim(id); err != nil {
			s.writeSessionErr(w, err)
			return
		}
	}
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	s.queue.Forget(id)
	// Every kind is session state. The lease record (KindOwner) goes too — it
	// never counts toward existence, since the Claim above just created one.
	// Only a session that was not live (evicted, or never here) needs the
	// store to say whether it existed.
	for _, kind := range storage.Kinds() {
		if !ok && kind != storage.KindOwner {
			if _, err := s.store.Get(kind, id); err == nil {
				ok = true
			}
		}
		if err := s.store.Delete(kind, id); err != nil {
			s.logf("server: delete %s %s: %v", kind, id, err)
		}
	}
	if !ok {
		writeErr(w, http.StatusNotFound, api.CodeNotFound, "session "+id+" not found")
		return
	}
	if s.met != nil {
		s.met.deleted.Inc()
	}
	s.logf("server: session %s deleted", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleProblems(w http.ResponseWriter, r *http.Request) {
	reply := api.ProblemsReply{Problems: catalog.Names()}
	if infos, err := catalog.Infos(); err == nil {
		for _, info := range infos {
			reply.Details = append(reply.Details, api.ProblemInfo{
				Name:        info.Name,
				Dim:         info.Dim,
				Constraints: info.Constraints,
				Rungs:       info.Rungs,
				RungCosts:   info.RungCosts,
			})
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleTelemetry serves the session's buffered event stream: the newest
// EventRingSize structured optimizer events (iterations, spans, faults),
// oldest first, for live debugging of a stuck or slow run.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.getSession(id)
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	reply := api.TelemetryReply{ID: id, Events: []json.RawMessage{}}
	if e.ring != nil {
		events := e.ring.Snapshot()
		reply.Dropped = e.ring.Dropped()
		reply.Events = make([]json.RawMessage, 0, len(events))
		for i := range events {
			raw, err := json.Marshal(&events[i])
			if err != nil {
				continue // unmarshalable event: skip rather than fail the reply
			}
			reply.Events = append(reply.Events, raw)
		}
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleLease grants one evaluation of the session to the requesting worker
// (see dispatch.Queue.Lease). The reply distinguishes "here is work", "no
// work right now, retry later" and "session finished".
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.getSession(id)
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	var req api.LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	width := e.req.Batch
	if width <= 0 {
		width = 1 // sessions are sequential unless created with batch > 1
	}
	ttl := time.Duration(req.TTLSeconds * float64(time.Second))
	// engineCtx (s.baseCtx + trace span), not r.Context(): the lease top-up
	// runs the shared engine's batch proposal — a worker disconnecting must
	// not interrupt it (see Server.baseCtx).
	grant, err := s.queue.Lease(s.engineCtx(r), id, req.Worker, ttl, width)
	switch {
	case err == nil:
		// The grant carries the suggesting request's trace context so the
		// worker's evaluation spans join the trace that asked for the work.
		writeJSON(w, http.StatusOK, api.LeaseReply{
			LeaseID:        grant.LeaseID,
			SuggestionID:   grant.Suggestion.ID,
			X:              grant.Suggestion.X,
			Fidelity:       int(grant.Suggestion.Fid),
			Iter:           grant.Suggestion.Iter,
			Attempt:        grant.Attempt,
			DeadlineUnixMs: grant.Deadline.UnixMilli(),
			TraceParent:    telemetry.SpanFromContext(r.Context()).Context().Traceparent(),
		})
	case errors.Is(err, dispatch.ErrNoWork):
		writeJSON(w, http.StatusOK, api.LeaseReply{
			None:              true,
			RetryAfterSeconds: s.queue.RetryAfter().Seconds(),
		})
	case errors.Is(err, core.ErrBudgetExhausted):
		writeJSON(w, http.StatusOK, api.LeaseReply{Done: true, Reason: api.CodeBudgetExhausted})
	case errors.Is(err, core.ErrInterrupted) && s.baseCtx.Err() == nil:
		writeJSON(w, http.StatusOK, api.LeaseReply{Done: true, Reason: api.CodeInterrupted})
	case errors.Is(err, s.baseCtx.Err()), errors.Is(err, core.ErrInterrupted):
		// Server shutting down mid-lease; workers retry against the restart.
		writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "server shutting down")
	default:
		s.writeSessionErr(w, err)
	}
}

// handleReport ingests the outcome of a leased evaluation (out-of-order
// within the session's batch; see dispatch.Queue.Report).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, err := s.getSession(id)
	if err != nil {
		s.writeSessionErr(w, err)
		return
	}
	var req api.ReportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.SuggestionID == "" {
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, "suggestion_id is required")
		return
	}
	ev := problem.Evaluation{Objective: req.Objective, Constraints: req.Constraints, Failed: req.Failed}
	ack, err := s.queue.ReportCtx(s.engineCtx(r), id, req.LeaseID, req.SuggestionID, req.IdempotencyKey, ev)
	switch {
	case err == nil:
		st := e.sess.Status()
		writeJSON(w, http.StatusOK, api.ReportReply{
			Cost:      st.Cost,
			Budget:    st.Budget,
			Done:      st.Phase == "done",
			Duplicate: ack.Duplicate,
		})
	case errors.Is(err, dispatch.ErrLeaseExpired):
		writeErr(w, http.StatusConflict, api.CodeLeaseExpired, err.Error())
	case errors.Is(err, core.ErrTellMismatch):
		writeErr(w, http.StatusConflict, api.CodeTellMismatch, err.Error())
	default:
		s.writeSessionErr(w, err)
	}
}

// handleHeartbeat extends a live lease; a 409 with code lease_expired tells
// the worker its lease is gone and the work unit should be dropped.
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	deadline, err := s.queue.Heartbeat(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, api.HeartbeatReply{DeadlineUnixMs: deadline.UnixMilli()})
	case errors.Is(err, dispatch.ErrLeaseExpired):
		writeErr(w, http.StatusConflict, api.CodeLeaseExpired, err.Error())
	default:
		s.writeSessionErr(w, err)
	}
}

// handleHealth reports liveness plus the readiness facts an operator needs:
// uptime, live-session count, fit-limiter queue state, the storage backend
// and an actual write probe of it, so a full disk flips OK to false before
// it eats a checkpoint.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.sessions)
	s.mu.RUnlock()
	writable := s.store.Probe() == nil
	reply := api.HealthReply{
		OK:                 writable,
		Sessions:           n,
		UptimeSeconds:      time.Since(s.started).Seconds(),
		Version:            buildinfo.Version(),
		FitSlotsInUse:      s.limiter.InUse(),
		FitSlotsWaiting:    s.limiter.Waiting(),
		FitSlots:           s.limiter.Cap(),
		Storage:            storageName(s.store),
		CheckpointWritable: &writable,
	}
	if fs, ok := s.store.(*storage.FS); ok {
		reply.CheckpointDir = fs.Dir()
	}
	if s.sharded() {
		reply.ReplicaID = s.leases.Replica()
		reply.OwnedSessions = n
	}
	status := http.StatusOK
	if !reply.OK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, reply)
}

// storageName classifies the backend for the health reply.
func storageName(st storage.Store) string {
	switch st.(type) {
	case *storage.FS:
		return "fs"
	case *storage.Mem:
		return "mem"
	case *storage.Chaos:
		return "chaos"
	default:
		return fmt.Sprintf("%T", st)
	}
}

// writeSessionErr maps registry/session-construction failures onto wire
// errors.
func (s *Server) writeSessionErr(w http.ResponseWriter, err error) {
	var wrong *shard.WrongOwnerError
	switch {
	case errors.As(err, &wrong):
		retry := time.Until(wrong.Expires).Seconds()
		if retry < 0 {
			retry = 0
		}
		writeJSON(w, api.StatusWrongOwner, api.ErrorReply{
			Error:             err.Error(),
			Code:              api.CodeWrongOwner,
			Owner:             wrong.Owner,
			RetryAfterSeconds: retry,
		})
	case errors.Is(err, shard.ErrNotOwner):
		writeErr(w, api.StatusWrongOwner, api.CodeWrongOwner, err.Error())
	case errors.Is(err, errNotFound):
		writeErr(w, http.StatusNotFound, api.CodeNotFound, err.Error())
	case errors.Is(err, errShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, api.CodeShuttingDown, err.Error())
	case errors.Is(err, core.ErrResumeMismatch):
		writeErr(w, http.StatusConflict, api.CodeResumeMismatch, err.Error())
	case errors.Is(err, core.ErrInvalidConfig), strings.Contains(err.Error(), "unknown problem"):
		writeErr(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.ErrorReply{Error: msg, Code: code})
}
