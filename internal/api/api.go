// Package api defines the JSON wire types and error codes of the
// optimization service. internal/server implements the endpoints,
// internal/client consumes them; sharing the DTOs here keeps the two ends of
// the wire in lockstep and gives external tooling a single import for the
// protocol.
//
// All floating-point payloads round-trip exactly through encoding/json
// (Go emits the shortest representation that parses back to the same
// float64), which is what lets a remote session reproduce an in-process
// trajectory bit-for-bit. Non-finite values are unrepresentable in JSON by
// design: evaluators must sanitize failures into Failed observations (see
// problem.PenaltyEvaluation) before posting.
package api

import "encoding/json"

// Error codes carried by ErrorReply.Code. The client maps them back onto the
// typed sentinel errors of internal/core so errors.Is works across the wire.
const (
	CodeBadRequest      = "bad_request"
	CodeNotFound        = "not_found"
	CodeConflict        = "conflict"
	CodeBudgetExhausted = "budget_exhausted"
	CodeInterrupted     = "interrupted"
	CodeNoPendingAsk    = "no_pending_ask"
	CodeTellMismatch    = "tell_mismatch"
	CodeResumeMismatch  = "resume_mismatch"
	CodeNoFeasible      = "no_feasible"
	CodeInternal        = "internal"
	CodeShuttingDown    = "shutting_down"
	// CodeLeaseExpired rejects a heartbeat or report referencing a lease that
	// no longer exists: it expired and was requeued (or the suggestion was
	// completed by another worker). The worker should drop the work unit and
	// lease a fresh one.
	CodeLeaseExpired = "lease_expired"
	// CodeUnknownSuggestion rejects an observation for a suggestion that is
	// not outstanding — typically a duplicate report for a requeued
	// evaluation whose result already arrived from another worker.
	CodeUnknownSuggestion = "unknown_suggestion"
	// CodeWrongOwner rejects a session request that landed on a replica which
	// does not hold the session's ownership lease (sharded deployments; HTTP
	// 421). ErrorReply.Owner names the replica that does when known, and
	// RetryAfterSeconds hints how long until the lease could move (its
	// remaining TTL). Gateways re-resolve and re-route; plain clients retry.
	CodeWrongOwner = "wrong_owner"
)

// StatusWrongOwner is the HTTP status carrying CodeWrongOwner replies: 421
// Misdirected Request — the request reached a server unable to produce an
// authoritative answer for it.
const StatusWrongOwner = 421

// ErrorReply is the body of every non-2xx response.
type ErrorReply struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
	// Owner names the replica holding the session's ownership lease on
	// CodeWrongOwner replies (empty when unknown — e.g. the lease is in
	// flux); RetryAfterSeconds is the remaining lease TTL, the earliest a
	// retry against this replica could succeed.
	Owner             string  `json:"owner,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// CreateSessionRequest opens (or, with Resume, reattaches to) a session.
// Zero-valued tuning fields select the optimizer defaults of core.Config.
type CreateSessionRequest struct {
	// ID optionally pins the session identifier — required for clients that
	// want to survive server restarts deterministically. Empty = generated.
	ID string `json:"id,omitempty"`
	// Problem is the catalog name of the problem (see GET /v1/problems).
	Problem string `json:"problem"`
	// Seed makes the whole trajectory deterministic.
	Seed int64 `json:"seed"`
	// Budget is the total simulation budget in equivalent high-fidelity
	// simulations (required, > 0).
	Budget float64 `json:"budget"`

	// InitLow / InitMid / InitHigh are the initialization design sizes of
	// the cheapest rung, each intermediate rung of a K>2 fidelity-ladder
	// problem (InitMid is ignored for two-fidelity problems) and the target
	// rung. The server refuses sizes above 10000 per rung.
	InitLow       int     `json:"init_low,omitempty"`
	InitHigh      int     `json:"init_high,omitempty"`
	InitMid       int     `json:"init_mid,omitempty"`
	Gamma         float64 `json:"gamma,omitempty"`
	MSPStarts     int     `json:"msp_starts,omitempty"`
	MSPLocalIter  int     `json:"msp_local_iter,omitempty"`
	GPRestarts    int     `json:"gp_restarts,omitempty"`
	GPMaxIter     int     `json:"gp_max_iter,omitempty"`
	RefitEvery    int     `json:"refit_every,omitempty"`
	MaxLowData    int     `json:"max_low_data,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	// Incremental enables O(n²) surrogate maintenance between full refits
	// (rank-1 Cholesky extensions of the cached models; see
	// core.Config.Incremental). NLMLTrigger tunes its early-refit trigger in
	// nats (0 = default 0.5, negative disables). LowRankAfter switches
	// surrogates beyond that many training points to the inducing-point
	// approximation (0 = exact GPs everywhere).
	Incremental  bool    `json:"incremental,omitempty"`
	NLMLTrigger  float64 `json:"nlml_trigger,omitempty"`
	LowRankAfter int     `json:"low_rank_after,omitempty"`
	// Batch is the maximum number of concurrently-outstanding suggestions
	// the session hands to the distributed dispatch queue (its per-session
	// in-flight cap). 0 or 1 keeps the session strictly sequential.
	Batch int `json:"batch,omitempty"`
	// Fantasy selects the synthetic-observation strategy used when Batch > 1
	// ("kriging-believer" or "constant-liar"; default kriging-believer).
	Fantasy string `json:"fantasy,omitempty"`

	// Resume reattaches to an existing session with this ID: if it is live
	// (or persisted on disk) the server restores it instead of failing with
	// a conflict. The tuning fields must match the original creation.
	Resume bool `json:"resume,omitempty"`
}

// SessionInfo describes a created or restored session.
type SessionInfo struct {
	ID             string    `json:"id"`
	Problem        string    `json:"problem"`
	Dim            int       `json:"dim"`
	NumConstraints int       `json:"num_constraints"`
	BoundsLo       []float64 `json:"bounds_lo"`
	BoundsHi       []float64 `json:"bounds_hi"`
	CostLow        float64   `json:"cost_low"`
	CostHigh       float64   `json:"cost_high"`
	// Rungs / RungCosts describe the problem's fidelity ladder: the rung
	// count K (2 for classic two-fidelity problems) and the per-rung costs in
	// equivalent target-rung simulations (RungCosts[K-1] == 1). Suggestion
	// and Observation fidelity values are rung indices 0..K-1.
	Rungs     int       `json:"rungs"`
	RungCosts []float64 `json:"rung_costs,omitempty"`
	Budget    float64   `json:"budget"`
	Seed      int64     `json:"seed"`
	Resumed   bool      `json:"resumed,omitempty"`
}

// Suggestion is the reply of GET /v1/sessions/{id}/suggest. When the session
// is terminal, Done is set and Reason explains why; otherwise X/Fidelity/Iter
// carry the next query. Suggest is idempotent until the matching observation
// arrives.
type Suggestion struct {
	Done     bool      `json:"done,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	X        []float64 `json:"x,omitempty"`
	Fidelity int       `json:"fidelity"`
	Iter     int       `json:"iter"`
}

// Observation is the body of POST /v1/sessions/{id}/observations: the
// outcome of evaluating the suggested point. X and Fidelity must echo the
// suggestion exactly.
type Observation struct {
	X           []float64 `json:"x"`
	Fidelity    int       `json:"fidelity"`
	Objective   float64   `json:"objective"`
	Constraints []float64 `json:"constraints,omitempty"`
	// Failed marks a simulation that produced no usable result; it is
	// charged against the budget but excluded from surrogate training.
	Failed bool `json:"failed,omitempty"`
}

// ObserveReply acknowledges an ingested observation.
type ObserveReply struct {
	Cost   float64 `json:"cost"`
	Budget float64 `json:"budget"`
	Done   bool    `json:"done,omitempty"`
}

// StatusReply summarizes a session.
type StatusReply struct {
	ID           string    `json:"id"`
	Problem      string    `json:"problem"`
	Phase        string    `json:"phase"`
	Iter         int       `json:"iter"`
	Cost         float64   `json:"cost"`
	Budget       float64   `json:"budget"`
	NumLow       int       `json:"num_low"`
	NumHigh      int       `json:"num_high"`
	NumFailed    int       `json:"num_failed"`
	Observations int       `json:"observations"`
	HasBest      bool      `json:"has_best"`
	BestX        []float64 `json:"best_x,omitempty"`
	BestObj      float64   `json:"best_objective,omitempty"`
	BestCons     []float64 `json:"best_constraints,omitempty"`
	Feasible     bool      `json:"feasible"`
	Degradations int       `json:"degradations"`
	Interrupted  bool      `json:"interrupted"`
}

// HistoryObservation is one entry of the history reply.
type HistoryObservation struct {
	Iter        int       `json:"iter"`
	X           []float64 `json:"x"`
	Fidelity    int       `json:"fidelity"`
	Objective   float64   `json:"objective"`
	Constraints []float64 `json:"constraints,omitempty"`
	Failed      bool      `json:"failed,omitempty"`
	CumCost     float64   `json:"cum_cost"`
}

// HistoryReply is the reply of GET /v1/sessions/{id}/history.
type HistoryReply struct {
	ID           string               `json:"id"`
	Observations []HistoryObservation `json:"observations"`
}

// ProblemInfo describes one catalog problem, fidelity ladder included.
type ProblemInfo struct {
	Name        string    `json:"name"`
	Dim         int       `json:"dim"`
	Constraints int       `json:"constraints"`
	Rungs       int       `json:"rungs"`
	RungCosts   []float64 `json:"rung_costs,omitempty"`
}

// ProblemsReply lists the server's problem catalog. Problems keeps the
// historical name list; Details carries the per-problem shape and ladder.
type ProblemsReply struct {
	Problems []string      `json:"problems"`
	Details  []ProblemInfo `json:"details,omitempty"`
}

// SessionsReply lists live session IDs.
type SessionsReply struct {
	Sessions []string `json:"sessions"`
}

// HealthReply is the reply of GET /v1/healthz. Beyond liveness it carries
// the readiness facts a load balancer or operator wants: how long the
// process has been up, how many sessions are live, and whether the
// checkpoint directory (when configured) is actually writable — a full disk
// or permission regression turns OK false before it corrupts a run.
type HealthReply struct {
	OK            bool    `json:"ok"`
	Sessions      int     `json:"sessions"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version is the server build (module version plus VCS revision, see
	// internal/buildinfo) so operators can tell what a fleet is running.
	Version string `json:"version,omitempty"`
	// CheckpointDir is the directory of the filesystem storage backend
	// ("" for other backends); CheckpointWritable reports the result of a
	// write probe against the storage backend. Storage names the durability
	// backend every session persists through ("fs", "mem", "chaos").
	CheckpointDir      string `json:"checkpoint_dir,omitempty"`
	Storage            string `json:"storage,omitempty"`
	CheckpointWritable *bool  `json:"checkpoint_writable,omitempty"`
	// FitSlotsInUse / FitSlotsWaiting / FitSlots expose the surrogate-fit
	// limiter queue.
	FitSlotsInUse   int `json:"fit_slots_in_use"`
	FitSlotsWaiting int `json:"fit_slots_waiting"`
	FitSlots        int `json:"fit_slots"`
	// ReplicaID identifies this replica in a sharded deployment ("" when the
	// server runs unsharded). OwnedSessions counts the sessions whose
	// ownership lease this replica currently holds in memory.
	ReplicaID     string `json:"replica_id,omitempty"`
	OwnedSessions int    `json:"owned_sessions,omitempty"`
}

// GatewayReplica is one backend replica as the gateway sees it.
type GatewayReplica struct {
	// ID is the replica's self-reported identity (HealthReply.ReplicaID);
	// empty until the first successful health check.
	ID string `json:"id,omitempty"`
	// URL is the replica's configured base URL.
	URL string `json:"url"`
	// Healthy reports the outcome of the newest health check (or a forward
	// that found the replica unreachable, which marks it suspect until the
	// next check).
	Healthy bool `json:"healthy"`
}

// GatewayHealthReply is GET /v1/healthz of mfbo-gateway: gateway liveness
// plus its routing view — which replicas it believes are healthy and the
// ring membership it routes by. OK means at least one replica is routable.
type GatewayHealthReply struct {
	OK            bool             `json:"ok"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Version       string           `json:"version,omitempty"`
	Replicas      []GatewayReplica `json:"replicas"`
	// Ring lists the healthy replica IDs currently on the consistent-hash
	// ring, sorted.
	Ring []string `json:"ring,omitempty"`
}

// LeaseRequest is the body of POST /v1/sessions/{id}/lease: a worker asking
// the dispatch queue for one evaluation to perform.
type LeaseRequest struct {
	// Worker identifies the requesting worker (for lease bookkeeping and
	// telemetry; free-form, e.g. "host-3/pid-712").
	Worker string `json:"worker"`
	// TTLSeconds optionally overrides the server's default lease duration.
	// The worker must heartbeat before the TTL elapses or the lease expires
	// and the evaluation is requeued to another worker.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// LeaseReply is the dispatch queue's answer to a lease request. Exactly one
// of three shapes comes back: a granted lease (LeaseID set), "no work right
// now, retry later" (None set), or "session finished" (Done set).
type LeaseReply struct {
	// None reports that every outstanding suggestion is already leased (or
	// the session is mid-initialization waiting on other workers); the worker
	// should poll again after RetryAfterSeconds.
	None              bool    `json:"none,omitempty"`
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// Done reports that the session is terminal and no further evaluations
	// will be handed out; Reason explains why.
	Done   bool   `json:"done,omitempty"`
	Reason string `json:"reason,omitempty"`

	LeaseID      string    `json:"lease_id,omitempty"`
	SuggestionID string    `json:"suggestion_id,omitempty"`
	X            []float64 `json:"x,omitempty"`
	Fidelity     int       `json:"fidelity"`
	Iter         int       `json:"iter"`
	// Attempt counts prior leases of this suggestion that expired (0 on the
	// first grant).
	Attempt int `json:"attempt,omitempty"`
	// DeadlineUnixMs is the wall-clock lease expiry; heartbeats push it out.
	DeadlineUnixMs int64 `json:"deadline_unix_ms,omitempty"`
	// TraceParent is the W3C traceparent of the lease request's server span,
	// when that request was traced: the worker parents its evaluation spans
	// on it so cross-process assembly joins the evaluation to the trace that
	// suggested the work.
	TraceParent string `json:"traceparent,omitempty"`
}

// ReportRequest is the body of POST /v1/sessions/{id}/report: the outcome of
// a leased evaluation, keyed by suggestion ID (reports may arrive out of
// order within a batch).
type ReportRequest struct {
	LeaseID      string    `json:"lease_id"`
	SuggestionID string    `json:"suggestion_id"`
	Objective    float64   `json:"objective"`
	Constraints  []float64 `json:"constraints,omitempty"`
	// Failed marks a simulation that produced no usable result; it is
	// charged against the budget but excluded from surrogate training.
	Failed bool `json:"failed,omitempty"`
	// IdempotencyKey identifies one logical evaluation attempt (workers use
	// "<suggestion_id>/<attempt>"). A report retried after a lost ack is
	// recognized by its key and re-acknowledged as a duplicate instead of
	// being double-processed. Optional; empty disables the check.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// ReportReply acknowledges a report.
type ReportReply struct {
	Cost   float64 `json:"cost"`
	Budget float64 `json:"budget"`
	Done   bool    `json:"done,omitempty"`
	// Duplicate reports that the suggestion's result had already been
	// ingested (e.g. the lease expired, the evaluation was requeued, and the
	// other worker reported first); this report was discarded. Not an error —
	// the worker just moves on.
	Duplicate bool `json:"duplicate,omitempty"`
}

// HeartbeatRequest is the body of POST /v1/leases/{id}/heartbeat.
type HeartbeatRequest struct {
	Worker string `json:"worker,omitempty"`
}

// HeartbeatReply acknowledges a heartbeat with the extended deadline.
type HeartbeatReply struct {
	DeadlineUnixMs int64 `json:"deadline_unix_ms"`
}

// TelemetryReply is the reply of GET /v1/sessions/{id}/telemetry: the
// newest buffered events of the session (oldest first) plus how many older
// ones the bounded ring has already overwritten. Each event is relayed
// verbatim as raw JSON — unmarshal into internal/telemetry.Event for the
// typed schema; keeping them raw here means the wire package does not pin
// the event schema.
type TelemetryReply struct {
	ID      string            `json:"id"`
	Events  []json.RawMessage `json:"events"`
	Dropped uint64            `json:"dropped"`
}
