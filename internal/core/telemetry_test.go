package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/problem"
	"repro/internal/telemetry"
	"repro/internal/testfunc"
)

// TestTelemetryOracle is the bit-identity oracle: a seeded run with full
// telemetry (metrics + event ring + unsampled tracing) must produce exactly
// the same trajectory as the same seed with telemetry off. Telemetry only
// captures values the optimizer computed anyway and never consumes optimizer
// RNG, so any divergence here is a bug in the instrumentation.
func TestTelemetryOracle(t *testing.T) {
	p := testfunc.Pedagogical()
	run := func(rec *telemetry.Recorder) *Result {
		cfg := fastCfg(12)
		cfg.Telemetry = rec
		res, err := Optimize(p, cfg, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ring := telemetry.NewRing(1024)
	on := run(telemetry.NewRecorder(ring, 1))
	off := run(nil)

	if len(on.History) != len(off.History) {
		t.Fatalf("history length %d vs %d", len(on.History), len(off.History))
	}
	for i := range on.History {
		a, b := on.History[i], off.History[i]
		if a.Fid != b.Fid || a.CumCost != b.CumCost || a.Eval.Objective != b.Eval.Objective {
			t.Fatalf("history[%d] diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("history[%d].X diverged: %v vs %v", i, a.X, b.X)
			}
		}
	}
	for j := range on.BestX {
		if on.BestX[j] != off.BestX[j] {
			t.Fatalf("BestX diverged: %v vs %v", on.BestX, off.BestX)
		}
	}
	if on.Best.Objective != off.Best.Objective || on.EquivalentSims != off.EquivalentSims {
		t.Fatalf("result diverged: %v/%v vs %v/%v",
			on.Best.Objective, on.EquivalentSims, off.Best.Objective, off.EquivalentSims)
	}
}

// TestTelemetryRemoteTraceOracle is the distributed-tracing oracle: driving
// the engine under a remote-parented trace context — the path a
// gateway-routed request takes through the server middleware — must yield the
// exact trajectory of an untraced drive. Propagation reads request metadata
// only, never optimizer RNG, so the engine spans must join the remote trace
// while the trajectory stays bit-identical.
func TestTelemetryRemoteTraceOracle(t *testing.T) {
	p := testfunc.Pedagogical()
	drive := func(rec *telemetry.Recorder, ctx context.Context) *Result {
		cfg := fastCfg(12)
		cfg.Telemetry = rec
		eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		for {
			s, err := eng.Ask(ctx)
			if errors.Is(err, ErrBudgetExhausted) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			ev, everr := problem.EvaluateRich(p, s.X, s.Fid)
			if everr != nil {
				ev.Failed = true
			}
			if err := eng.TellCtx(ctx, s.X, s.Fid, ev); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The traced drive: a request span continuing a fictitious gateway's
	// trace, exactly what server middleware puts into the engine context.
	ring := telemetry.NewRing(4096)
	rec := telemetry.NewRecorder(ring, 1)
	gwTC := telemetry.TraceContext{TraceHi: 0x1111, TraceLo: 0x2222, SpanID: 0x3333, Sampled: true}
	reqSpan := rec.Tracer.StartRemote("server.suggest", gwTC)
	traced := drive(rec, telemetry.ContextWithSpan(context.Background(), reqSpan))
	reqSpan.End()
	plain := drive(nil, context.Background())

	if len(traced.History) != len(plain.History) {
		t.Fatalf("history length %d vs %d", len(traced.History), len(plain.History))
	}
	for i := range traced.History {
		a, b := traced.History[i], plain.History[i]
		if a.Fid != b.Fid || a.CumCost != b.CumCost || a.Eval.Objective != b.Eval.Objective {
			t.Fatalf("history[%d] diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("history[%d].X diverged: %v vs %v", i, a.X, b.X)
			}
		}
	}
	if traced.Best.Objective != plain.Best.Objective || traced.EquivalentSims != plain.EquivalentSims {
		t.Fatalf("result diverged: %v/%v vs %v/%v",
			traced.Best.Objective, traced.EquivalentSims, plain.Best.Objective, plain.EquivalentSims)
	}

	// Every emitted span joined the gateway's trace, and the engine roots
	// parented on the request span rather than starting traces of their own.
	want := gwTC.TraceID()
	engineSpans := 0
	for _, ev := range ring.Snapshot() {
		if ev.Span == nil {
			continue
		}
		if ev.Span.Trace != want {
			t.Fatalf("span %s carries trace %s, want %s", ev.Span.Name, ev.Span.Trace, want)
		}
		if ev.Span.Name == "engine.ask" || ev.Span.Name == "engine.tell" {
			engineSpans++
			if ev.Span.Parent == 0 {
				t.Fatalf("%s span did not parent on the request span", ev.Span.Name)
			}
		}
	}
	if engineSpans == 0 {
		t.Fatal("no engine spans joined the remote trace")
	}
}

// TestTelemetryEventStream checks the structured event log carries the
// paper's decision variables: the run header, one event per observation, the
// §3.4 fidelity comparison on adaptive iterations and the acquisition value
// at the argmax.
func TestTelemetryEventStream(t *testing.T) {
	p := testfunc.Pedagogical()
	ring := telemetry.NewRing(1024)
	rec := telemetry.NewRecorder(ring, 1)
	cfg := fastCfg(12)
	cfg.Telemetry = rec
	res, err := Optimize(p, cfg, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}

	events := ring.Snapshot()
	var runEv *telemetry.RunEvent
	var iters []*telemetry.IterationEvent
	spans := map[string]int{}
	for _, ev := range events {
		switch {
		case ev.Run != nil:
			runEv = ev.Run
		case ev.Iteration != nil:
			iters = append(iters, ev.Iteration)
		case ev.Span != nil:
			spans[ev.Span.Name]++
			// Every L-BFGS run asks the gradient at its start, so a
			// maximization or a trained fit has at least one per start.
			a := ev.Span.Attrs
			starts := a["starts"] + a["restarts"]
			_, hasValues := a["value_evals"]
			if (ev.Span.Name == "optimize.msp" || ev.Span.Name == "gp.fit") && starts > 0 &&
				(!hasValues || a["grad_evals"] < starts) {
				t.Fatalf("%s span counts L-BFGS calls wrongly: %v", ev.Span.Name, a)
			}
		}
	}
	if runEv == nil {
		t.Fatal("no run event emitted")
	}
	if runEv.Problem != p.Name() || runEv.Dim != p.Dim() || runEv.Budget != 12 ||
		runEv.InitLow != cfg.InitLow || runEv.InitHigh != cfg.InitHigh {
		t.Fatalf("run event = %+v", runEv)
	}
	if len(iters) != len(res.History) {
		t.Fatalf("%d iteration events for %d observations", len(iters), len(res.History))
	}

	nInit, nAdaptive, nSigma, nAcq := 0, 0, 0, 0
	for i, ev := range iters {
		ob := res.History[i]
		if ev.Fidelity != ob.Fid.String() || ev.CumCost != ob.CumCost || ev.Objective != ob.Eval.Objective {
			t.Fatalf("event %d does not match history: %+v vs %+v", i, ev, ob)
		}
		if ev.Iter < 0 {
			nInit++
			continue
		}
		nAdaptive++
		if ev.HasSigma2 {
			nSigma++
			if ev.Threshold != float64(1+ev.Nc)*ev.Gamma {
				t.Fatalf("threshold %v != (1+%d)*%v", ev.Threshold, ev.Nc, ev.Gamma)
			}
		}
		if ev.AcqHigh != 0 || ev.AcqLow != 0 {
			nAcq++
		}
		if ev.MSPStartsHigh == 0 && ev.MSPStartsLow == 0 && ev.Degrade == "" && !ev.ForcedHigh {
			t.Fatalf("adaptive event %d missing MSP bookkeeping: %+v", i, ev)
		}
		if len(ev.NLMLLow) == 0 && ev.Degrade == "" {
			t.Fatalf("adaptive event %d missing fit health: %+v", i, ev)
		}
	}
	if nInit != cfg.InitLow+cfg.InitHigh {
		t.Fatalf("init events = %d, want %d", nInit, cfg.InitLow+cfg.InitHigh)
	}
	if nAdaptive == 0 || nSigma == 0 || nAcq == 0 {
		t.Fatalf("adaptive=%d sigma=%d acq=%d — decision variables missing", nAdaptive, nSigma, nAcq)
	}

	// The span taxonomy: ask/tell roots plus fit and MSP children.
	for _, name := range []string{"engine.ask", "engine.tell", "gp.fit", "optimize.msp"} {
		if spans[name] == 0 {
			t.Fatalf("no %q spans (got %v)", name, spans)
		}
	}

	// The end-of-run table renders from the same stream.
	table := telemetry.Summarize(events).Table()
	if !strings.Contains(table, "sigma2_max") || !strings.Contains(table, "adaptive") {
		t.Fatalf("summary table:\n%s", table)
	}
}

// TestTelemetryMetrics checks the registry view of a run: evaluation and
// iteration counters match the result, and the timing histograms saw the fit
// and acquisition phases.
func TestTelemetryMetrics(t *testing.T) {
	p := testfunc.Forrester()
	rec := telemetry.NewRecorder(nil, 1)
	cfg := fastCfg(10)
	cfg.Telemetry = rec
	res, err := Optimize(p, cfg, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Metrics
	low := reg.Counter("mfbo_evaluations_total", "", "fidelity", "low").Value()
	high := reg.Counter("mfbo_evaluations_total", "", "fidelity", "high").Value()
	if low != uint64(res.NumLow) || high != uint64(res.NumHigh) {
		t.Fatalf("evaluation counters %d/%d vs result %d/%d", low, high, res.NumLow, res.NumHigh)
	}
	iterations := reg.Counter("mfbo_iterations_total", "").Value()
	adaptive := len(res.History) - cfg.InitLow - cfg.InitHigh
	if iterations != uint64(adaptive) {
		t.Fatalf("iterations counter %d, want %d", iterations, adaptive)
	}
	if reg.Histogram("mfbo_fit_seconds", "", nil).Count() == 0 {
		t.Fatal("fit histogram empty")
	}
	if reg.Histogram("mfbo_acq_seconds", "", nil).Count() == 0 {
		t.Fatal("acq histogram empty")
	}
	if reg.Histogram("mfbo_ask_seconds", "", nil).Count() == 0 {
		t.Fatal("ask histogram empty")
	}
	// The gauge accumulates per-evaluation, so allow for summation order.
	if g := reg.Gauge("mfbo_cost_equivalent_sims", "").Value(); math.Abs(g-res.EquivalentSims) > 1e-9 {
		t.Fatalf("cost gauge %v vs %v", g, res.EquivalentSims)
	}
}

// TestTelemetryBatchDecisionRecords drives AskBatch(3) with the newest slot
// told first. Every adaptive observation must still be logged with the §3.4
// decision record of its own proposal — its rung, σ²_max against the
// threshold that chose that rung, and the fit-skip flag — and switching
// telemetry on must not move the trajectory.
func TestTelemetryBatchDecisionRecords(t *testing.T) {
	run := func(rec *telemetry.Recorder) *Result {
		p := testfunc.ConstrainedSynthetic()
		cfg := fastCfg(8)
		cfg.Incremental, cfg.RefitEvery = true, 3
		cfg.Telemetry = rec
		eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(44)))
		if err != nil {
			t.Fatal(err)
		}
		return driveBatch(t, eng, p, 3)
	}
	ring := telemetry.NewRing(4096)
	res := run(telemetry.NewRecorder(ring, 0))
	historiesIdentical(t, run(nil), res)

	var iters []*telemetry.IterationEvent
	for _, ev := range ring.Snapshot() {
		if ev.Iteration != nil {
			iters = append(iters, ev.Iteration)
		}
	}
	if len(iters) != len(res.History) {
		t.Fatalf("%d iteration events for %d observations", len(iters), len(res.History))
	}
	seen := map[int]bool{}
	skipped := 0
	for i, ev := range iters {
		ob := res.History[i]
		if ev.Iter != ob.Iter || ev.Fidelity != ob.Fid.String() {
			t.Fatalf("event %d (iter %d, %s) does not match observation (iter %d, %s)",
				i, ev.Iter, ev.Fidelity, ob.Iter, ob.Fid)
		}
		if ob.Iter < 0 {
			continue
		}
		if seen[ev.Iter] {
			t.Fatalf("iteration %d logged twice", ev.Iter)
		}
		seen[ev.Iter] = true
		if ev.Degrade != "" {
			continue
		}
		if !ev.HasSigma2 || ev.Threshold == 0 || (len(ev.NLMLLow) == 0) != ev.FitSkipped {
			t.Fatalf("adaptive event %d lost its decision record: %+v", i, ev)
		}
		if high := ev.Sigma2Max < ev.Threshold; high != (ob.Fid == problem.High) {
			t.Fatalf("event %d: σ²_max %v vs threshold %v does not choose %s", i, ev.Sigma2Max, ev.Threshold, ob.Fid)
		}
		if ev.FitSkipped {
			skipped++
		}
	}
	if len(seen) < 3 || skipped == 0 {
		t.Fatalf("%d adaptive events, %d fit-skipped: the run is too short to test batch records", len(seen), skipped)
	}
}
