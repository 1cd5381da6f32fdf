package loadgen_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

func TestHistQuantile(t *testing.T) {
	h := loadgen.NewHist()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty hist quantile = %v, want 0", got)
	}
	// 90 fast samples, 10 slow ones: p50 must land near the fast mode, p99
	// near the slow mode, and the estimate must never undershoot the truth by
	// more than one bucket ratio (the bound is an upper edge).
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2 * time.Second)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < time.Millisecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈1ms", p50)
	}
	if p99 < 2*time.Second || p99 > 3*time.Second {
		t.Fatalf("p99 = %v, want ≈2s", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
}

func TestResultCheck(t *testing.T) {
	base := loadgen.Result{
		Sessions: 10, Completed: 10,
		Requests: 1000, Errors: 0,
		P50: 10 * time.Millisecond, P95: 50 * time.Millisecond, P99: 200 * time.Millisecond,
		Throughput: 5,
	}
	cases := []struct {
		name   string
		mutate func(*loadgen.Result)
		slo    loadgen.SLO
		want   string // substring of the violation, "" = pass
	}{
		{"all green", func(r *loadgen.Result) {}, loadgen.SLO{MaxErrorRate: 0.01, MaxP99: time.Second, MinThroughput: 1}, ""},
		{"zero SLO ignores latency", func(r *loadgen.Result) {}, loadgen.SLO{}, ""},
		{"error rate", func(r *loadgen.Result) { r.Errors = 100 }, loadgen.SLO{MaxErrorRate: 0.01}, "error rate"},
		{"errors with no tolerance", func(r *loadgen.Result) { r.Errors = 1 }, loadgen.SLO{}, "error rate"},
		{"p99", func(r *loadgen.Result) {}, loadgen.SLO{MaxP99: 100 * time.Millisecond}, "p99"},
		{"p50", func(r *loadgen.Result) {}, loadgen.SLO{MaxP50: time.Millisecond}, "p50"},
		{"throughput", func(r *loadgen.Result) {}, loadgen.SLO{MinThroughput: 100}, "throughput"},
		{"lost acks always fail", func(r *loadgen.Result) { r.Lost = []string{"lg-00001 (acked 5, history 3)"} }, loadgen.SLO{}, "lost acked"},
		{"verify mismatch always fails", func(r *loadgen.Result) { r.VerifyMismatches = []string{"lg-00000: obs 3 objective differs"} }, loadgen.SLO{}, "diverged"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base
			tc.mutate(&r)
			err := r.Check(tc.slo)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected violation: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want violation containing %q, got %v", tc.want, err)
			}
		})
	}
}

// replica is one in-process sharded backend.
type replica struct {
	srv *server.Server
	ts  *httptest.Server
}

// newCluster boots n sharded replicas over one shared store and a gateway
// fronting them, mirroring a production 3-replica deployment in-process.
func newCluster(t *testing.T, n int, ttl time.Duration) ([]replica, *httptest.Server) {
	t.Helper()
	store := storage.NewMem(storage.MemConfig{})
	reps := make([]replica, n)
	urls := make([]string, n)
	for i := range reps {
		srv, err := server.New(server.Config{
			Store: store, ReplicaID: "r" + string(rune('a'+i)), OwnershipTTL: ttl,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		reps[i] = replica{srv: srv, ts: ts}
		urls[i] = ts.URL
	}
	gw, err := gateway.New(gateway.Config{
		Replicas:    urls,
		Ring:        shard.RingConfig{Seed: 7},
		HealthEvery: 50 * time.Millisecond,
		RetryBudget: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(func() {
		gts.Close()
		gw.Close()
		for _, r := range reps {
			r.ts.Close()
			_ = r.srv.Close()
		}
	})
	return reps, gts
}

// TestLoadgenAgainstCluster: a clean 3-replica run completes every session
// with zero errors, zero lost acks, and a bit-identical verification sample.
func TestLoadgenAgainstCluster(t *testing.T) {
	_, gts := newCluster(t, 3, time.Minute)
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:       gts.URL,
		Sessions:     12,
		Concurrency:  6,
		Seed:         100,
		VerifySample: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 12 || res.Failed != 0 {
		t.Fatalf("completed %d failed %d: %+v", res.Completed, res.Failed, res)
	}
	if res.Acked == 0 {
		t.Fatal("no observations acked")
	}
	if res.Verified != 2 {
		t.Fatalf("verified %d/2: %v", res.Verified, res.VerifyMismatches)
	}
	if err := res.Check(loadgen.SLO{MaxErrorRate: 0, MaxP99: time.Minute}); err != nil {
		t.Fatalf("SLO: %v", err)
	}
}

// TestLoadgenDeleteCleansUp: with Delete on, the deployment ends the run
// empty.
func TestLoadgenDeleteCleansUp(t *testing.T) {
	_, gts := newCluster(t, 2, time.Minute)
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:   gts.URL,
		Sessions: 4, Concurrency: 2, Seed: 7, Delete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d: %v", res.Completed, res.SessionErrors)
	}
	resp, err := gts.Client().Get(gts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.SessionsReply
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if left := list.Sessions; len(left) != 0 {
		t.Fatalf("sessions left after delete run: %v", left)
	}
}

// TestLoadgenSurvivesReplicaKill is the headline chaos acceptance test: a
// replica is SIGKILL-equivalently destroyed mid-load (no goodbye write, no
// final persist beyond the per-observation checkpoints). Every session must
// still complete through the gateway, no acked observation may be lost, and
// a sample of sessions — including any that migrated — must match the
// in-process reference bit-for-bit.
func TestLoadgenSurvivesReplicaKill(t *testing.T) {
	const ttl = 500 * time.Millisecond
	reps, gts := newCluster(t, 3, ttl)

	done := make(chan struct{})
	var res *loadgen.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = loadgen.Run(context.Background(), loadgen.Config{
			Target:       gts.URL,
			Sessions:     24,
			Concurrency:  8,
			Seed:         500,
			VerifySample: 4,
			Retries:      12,
		})
	}()

	// Wait until the run is warm — some sessions resident on the victim —
	// then pull the plug: Kill skips every goodbye write, exactly like a
	// SIGKILL, so its leases age out rather than being released.
	victim := reps[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("victim never became warm")
		}
		resp, err := victim.ts.Client().Get(victim.ts.URL + "/v1/sessions")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Sessions []string `json:"sessions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err == nil && len(body.Sessions) >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.srv.Kill()
	victim.ts.Close()
	t.Logf("killed replica rb mid-run")

	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		t.Fatal("load run wedged after replica kill")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Completed != 24 || res.Failed != 0 {
		t.Fatalf("completed %d failed %d; errors: %v", res.Completed, res.Failed, res.SessionErrors)
	}
	if len(res.Lost) != 0 {
		t.Fatalf("acked observations lost: %v", res.Lost)
	}
	if res.Verified != 4 {
		t.Fatalf("verified %d/4 sessions: %v", res.Verified, res.VerifyMismatches)
	}
	// Latency may spike across the ownership handoff (one lease TTL plus
	// rerouting), but the error budget stays zero: the failover is invisible
	// to clients.
	if err := res.Check(loadgen.SLO{MaxErrorRate: 0, MaxP99: time.Minute}); err != nil {
		t.Fatalf("SLO after kill: %v", err)
	}
}
