package core

import "errors"

// Typed sentinel errors. Callers should classify failures with errors.Is
// rather than matching message strings: every error constructed by this
// package that falls into one of these categories wraps the sentinel.
var (
	// ErrBudgetExhausted is returned by Engine.Ask when the run has spent
	// its simulation budget (or hit Config.MaxIterations) and no further
	// suggestions will be produced. It signals normal completion, not a
	// fault: call Engine.Result to collect the outcome.
	ErrBudgetExhausted = errors.New("core: simulation budget exhausted")

	// ErrNoFeasible is returned by Optimize/Resume/Engine.Result when the
	// run ended without a single successful high-fidelity observation, so
	// no best point — feasible or otherwise — can be reported.
	ErrNoFeasible = errors.New("core: no successful high-fidelity observations recorded")

	// ErrResumeMismatch marks a checkpoint that cannot continue under the
	// supplied problem/config: wrong snapshot version, wrong problem
	// identity or shape, or RNG-visible scalar config drift that would
	// silently change the search trajectory.
	ErrResumeMismatch = errors.New("core: checkpoint does not match problem/config")

	// ErrInterrupted is returned by Engine.Ask when the driving context was
	// cancelled; the partial state remains intact and snapshot-able.
	ErrInterrupted = errors.New("core: run interrupted by context cancellation")

	// ErrNoPendingAsk is returned by Engine.Tell when no suggestion is
	// outstanding (Tell without Ask, or a duplicate Tell).
	ErrNoPendingAsk = errors.New("core: no pending suggestion to observe")

	// ErrTellMismatch is returned by Engine.Tell when the observed point or
	// fidelity does not match the pending suggestion. Ask/Tell must
	// alternate on exactly the suggested queries to keep service-driven
	// trajectories bit-identical to in-process ones.
	ErrTellMismatch = errors.New("core: observation does not match the pending suggestion")

	// ErrUnknownSuggestion is returned by Engine.TellByID when the named
	// suggestion is not outstanding: it was never issued, or its observation
	// already arrived (e.g. a duplicate report for a requeued distributed
	// evaluation). The dispatch layer treats it as "result already ingested
	// elsewhere" and discards the report.
	ErrUnknownSuggestion = errors.New("core: unknown or already-observed suggestion id")

	// ErrInvalidConfig marks a Config the engine refuses outright: a
	// non-positive Budget, a negative LowRankAfter or an unknown Fantasy.
	// The service answers it with 400, since the request carried it.
	ErrInvalidConfig = errors.New("core: invalid config")
)
