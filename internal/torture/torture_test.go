package torture

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// storageCounter fetches a labeled mfbo_storage_* counter from the registry
// (help strings must match the registration in internal/storage).
func storageCounter(reg *telemetry.Registry, name, help string, kind storage.Kind) *telemetry.Counter {
	return reg.Counter(name, help, "kind", string(kind))
}

func rollbacks(reg *telemetry.Registry, kind storage.Kind) *telemetry.Counter {
	return storageCounter(reg, "mfbo_storage_rollbacks_total",
		"reads recovered by rolling back past a corrupt head, by kind", kind)
}

func quarantines(reg *telemetry.Registry, kind storage.Kind) *telemetry.Counter {
	return storageCounter(reg, "mfbo_storage_quarantines_total",
		"corrupt generations quarantined, by kind", kind)
}

// TestTortureCrashRestartCycles is the acceptance torture run: 25 SIGKILL-
// style crash/restart cycles over a hardened FS store with storage faults
// injected (EIO writes, torn writes, read errors, latency spikes) and
// storage heads deliberately corrupted between lifetimes. Run under -race.
//
// Invariants checked by the harness:
//   - zero acknowledged observations lost across all crashes
//   - zero suggestions re-offered after their report was acked
//   - the run converges (budget exhausted) despite everything
//
// plus, here: every deliberate head corruption is visible as exactly one
// rollback and at least one quarantine in mfbo_storage_*.
func TestTortureCrashRestartCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run is long")
	}
	rec := telemetry.NewRecorder(nil, 0)
	fs, err := storage.NewFS(storage.FSConfig{
		Dir:         t.TempDir(),
		Generations: 5, // deep enough that chaos + deliberate corruption never eat every good head
		Telemetry:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &InProc{
		Inner: fs,
		Chaos: storage.ChaosConfig{
			Seed:          1,
			WriteErrRate:  0.05,
			TornWriteRate: 0.05,
			ReadErrRate:   0.03,
			LatencyRate:   0.10,
			Latency:       200 * time.Microsecond,
		},
		Telemetry: rec,
	}
	defer ctl.Stop()

	const session = "torture"
	corruptions := 0
	opt := Options{
		Session: session,
		Cycles:  25,
		Logf:    t.Logf,
		// Every 5th crash also corrupts the newest manifest generation on
		// disk — the next resume must roll back to the previous one (the
		// manifest is rewritten identically on every resume, so nothing is
		// lost) and quarantine the damage.
		BetweenCycles: func(cycle int) {
			if cycle%5 != 4 {
				return
			}
			if err := fs.CorruptHead(storage.KindManifest, session, 9); err != nil {
				t.Errorf("corrupt manifest head after cycle %d: %v", cycle, err)
				return
			}
			corruptions++
		},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	rep, err := Run(ctx, ctl, opt)
	if err != nil {
		t.Fatalf("torture run: %v (report %+v)", err, rep)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Kills < 25 {
		t.Errorf("executed %d kill cycles, want >= 25", rep.Kills)
	}
	if !rep.Converged {
		t.Errorf("run did not converge (final observations %d, acked %d)", rep.FinalObs, rep.Acked)
	}
	if rep.FinalObs < rep.Acked {
		t.Errorf("final history %d < acked %d: acked observations were lost", rep.FinalObs, rep.Acked)
	}
	if rep.Acked < 25 {
		t.Errorf("only %d acks across 25 cycles, want >= 25", rep.Acked)
	}

	reg := rec.Metrics
	if corruptions == 0 {
		t.Fatal("no deliberate corruptions executed")
	}
	if got := rollbacks(reg, storage.KindManifest).Value(); got < uint64(corruptions) {
		t.Errorf("mfbo_storage_rollbacks_total{kind=manifest} = %d, want >= %d (one per deliberate corruption)", got, corruptions)
	}
	if got := quarantines(reg, storage.KindManifest).Value(); got < uint64(corruptions) {
		t.Errorf("mfbo_storage_quarantines_total{kind=manifest} = %d, want >= %d", got, corruptions)
	}
	t.Logf("torture: kills=%d acked=%d dups=%d finalObs=%d manifestRollbacks=%v",
		rep.Kills, rep.Acked, rep.Duplicates, rep.FinalObs,
		rollbacks(reg, storage.KindManifest).Value())
}

// TestCorruptCheckpointHeadRollsBack pins the exact rollback semantics on
// the checkpoint path: corrupting the newest checkpoint generation after a
// crash loses exactly the last observation, increments the rollback and
// quarantine counters by exactly one each, and the observation whose
// checkpoint was destroyed is re-offered to workers (its suggestion is
// pending again in the rolled-back snapshot).
func TestCorruptCheckpointHeadRollsBack(t *testing.T) {
	rec := telemetry.NewRecorder(nil, 0)
	fs, err := storage.NewFS(storage.FSConfig{Dir: t.TempDir(), Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &InProc{Inner: fs, Telemetry: rec} // no chaos: every fault here is deliberate
	defer ctl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const session = "rollback"
	url, err := ctl.Start()
	if err != nil {
		t.Fatal(err)
	}
	cli := client.New(url)
	if _, err := cli.CreateSession(ctx, api.CreateSessionRequest{
		ID: session, Problem: "constrained", Seed: 3, Budget: 10,
		InitLow: 20, InitHigh: 8, Batch: 1,
	}); err != nil {
		t.Fatal(err)
	}

	// Serve five evaluations synchronously, remembering the ack order.
	p, err := catalog.Lookup("constrained")
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 5; i++ {
		lease, err := cli.Lease(ctx, session, api.LeaseRequest{Worker: "w"})
		if err != nil || lease.None || lease.Done {
			t.Fatalf("lease %d: %+v err=%v", i, lease, err)
		}
		ev := p.Evaluate(lease.X, problem.Fidelity(lease.Fidelity))
		if _, err := cli.Report(ctx, session, api.ReportRequest{
			LeaseID:        lease.LeaseID,
			SuggestionID:   lease.SuggestionID,
			Objective:      ev.Objective,
			Constraints:    ev.Constraints,
			IdempotencyKey: lease.SuggestionID + "/" + strconv.Itoa(lease.Attempt),
		}); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		acked = append(acked, lease.SuggestionID)
	}

	// SIGKILL, then destroy the newest checkpoint generation.
	ctl.Kill()
	r0 := rollbacks(rec.Metrics, storage.KindCheckpoint).Value()
	q0 := quarantines(rec.Metrics, storage.KindCheckpoint).Value()
	if err := fs.CorruptHead(storage.KindCheckpoint, session, 9); err != nil {
		t.Fatal(err)
	}

	// Restart + resume: the store must roll back exactly one generation.
	url, err = ctl.Start()
	if err != nil {
		t.Fatal(err)
	}
	cli = client.New(url)
	if _, err := cli.CreateSession(ctx, api.CreateSessionRequest{
		ID: session, Problem: "constrained", Seed: 3, Budget: 10,
		InitLow: 20, InitHigh: 8, Batch: 1, Resume: true,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Status(ctx, session)
	if err != nil {
		t.Fatal(err)
	}
	if st.Observations != len(acked)-1 {
		t.Fatalf("resumed with %d observations, want %d (exactly the corrupted head lost)", st.Observations, len(acked)-1)
	}
	if got := rollbacks(rec.Metrics, storage.KindCheckpoint).Value(); got != r0+1 {
		t.Fatalf("rollbacks{kind=ckpt} = %d, want %d", got, r0+1)
	}
	if got := quarantines(rec.Metrics, storage.KindCheckpoint).Value(); got != q0+1 {
		t.Fatalf("quarantines{kind=ckpt} = %d, want %d", got, q0+1)
	}

	// The rolled-back observation's suggestion is pending again and is the
	// first thing re-offered — the "pending suggestions re-offered" half of
	// the crash contract.
	lease, err := cli.Lease(ctx, session, api.LeaseRequest{Worker: "w"})
	if err != nil || lease.None || lease.Done {
		t.Fatalf("post-rollback lease: %+v err=%v", lease, err)
	}
	if lease.SuggestionID != acked[len(acked)-1] {
		t.Fatalf("re-offered %q, want the rolled-back suggestion %q", lease.SuggestionID, acked[len(acked)-1])
	}
}

// TestProxyNetworkFaults drives a session through the TCP chaos proxy while
// severing every live connection repeatedly: client retries plus report
// idempotency must absorb the cuts and still finish a short run with no
// invariant violations.
func TestProxyNetworkFaults(t *testing.T) {
	rec := telemetry.NewRecorder(nil, 0)
	mem := storage.NewMem(storage.MemConfig{})
	ctl := &InProc{Inner: mem, Telemetry: rec}
	defer ctl.Stop()
	url, err := ctl.Start()
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := NewProxy(url[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Saw through the proxy's connections for the whole run.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				proxy.CutAll()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, &proxied{ctl: ctl, proxy: proxy}, Options{
		Session: "netchaos",
		Cycles:  3,
		Budget:  5.2, InitLow: 10, InitHigh: 4, // ~17 observations
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v (report %+v)", err, rep)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !rep.Converged {
		t.Errorf("run did not converge under network chaos (obs %d, acked %d)", rep.FinalObs, rep.Acked)
	}
	if proxy.Cuts() == 0 {
		t.Error("proxy never cut a connection; network chaos did not engage")
	}
}

// proxied routes a controller's URL through the chaos proxy.
type proxied struct {
	ctl   *InProc
	proxy *Proxy
}

func (p *proxied) Start() (string, error) {
	url, err := p.ctl.Start()
	if err != nil {
		return "", err
	}
	p.proxy.SetTarget(url[len("http://"):])
	return p.proxy.URL(), nil
}

func (p *proxied) Kill() { p.ctl.Kill() }
