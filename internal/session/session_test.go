package session

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/testfunc"
)

func fastCore(budget float64) core.Config {
	return core.Config{
		Budget:    budget,
		InitLow:   8,
		InitHigh:  4,
		MSP:       optimize.MSPConfig{Starts: 6, LocalIter: 25},
		GPMaxIter: 40,
	}
}

// memConfig configures a session persisted into a fresh in-memory store.
func memConfig(p problem.Problem, c core.Config, seed int64) Config {
	return Config{Problem: p, Core: c, Seed: seed,
		Store: storage.NewMem(storage.MemConfig{}), StoreID: "sess", Limiter: NewLimiter(1)}
}

// drive runs the full ask/tell protocol against a session with a local
// evaluator and returns its history.
func drive(t *testing.T, s *Session, p problem.Problem) []core.Observation {
	t.Helper()
	for {
		sug, err := s.Ask(context.Background())
		if errors.Is(err, core.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ev, everr := problem.EvaluateRich(p, sug.X, sug.Fid)
		if everr != nil {
			ev.Failed = true
		}
		if err := s.TellCtx(context.Background(), sug.X, sug.Fid, ev); err != nil {
			t.Fatal(err)
		}
	}
	return s.History()
}

// TestSessionMatchesOptimize: a session-driven trajectory is bit-identical to
// the in-process Optimize run under the same seed.
func TestSessionMatchesOptimize(t *testing.T) {
	ref, err := core.Optimize(testfunc.Forrester(), fastCore(8), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	p := testfunc.Forrester()
	s, err := Open(memConfig(p, fastCore(8), 11))
	if err != nil {
		t.Fatal(err)
	}
	hist := drive(t, s, p)
	if len(hist) != len(ref.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(hist), len(ref.History))
	}
	for i := range hist {
		for j := range hist[i].X {
			if math.Float64bits(hist[i].X[j]) != math.Float64bits(ref.History[i].X[j]) {
				t.Fatalf("obs %d: x[%d] differs", i, j)
			}
		}
		if hist[i].Fid != ref.History[i].Fid {
			t.Fatalf("obs %d: fidelity differs", i)
		}
	}
	st := s.Status()
	if st.Progress.Phase != "done" {
		t.Fatalf("session phase %q after exhausting the budget, want done", st.Progress.Phase)
	}
	if !st.Progress.HasBest || math.Float64bits(st.Progress.Best.Objective) != math.Float64bits(ref.Best.Objective) {
		t.Fatal("best objective differs from in-process run")
	}
}

// TestSessionOpenPersistRoundTrip: Open restores a session persisted in an
// on-disk store (here snapshotted mid-initialization via Persist) by a store
// reopened over the same directory, and the continuation completes with the
// original prefix intact.
func TestSessionOpenPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	openStore := func() storage.Store {
		st, err := storage.NewFS(storage.FSConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := Config{Problem: testfunc.Forrester(), Core: fastCore(6), Seed: 5, Store: openStore(), StoreID: "sess", Limiter: NewLimiter(1)}

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate three initialization points, then persist and drop the session.
	p := cfg.Problem
	for i := 0; i < 3; i++ {
		sug, err := s.Ask(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.TellCtx(context.Background(), sug.X, sug.Fid, p.Evaluate(sug.X, sug.Fid)); err != nil {
			t.Fatal(err)
		}
	}
	prefix := s.History()
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}

	cfg2 := Config{Problem: testfunc.Forrester(), Core: fastCore(6), Seed: 5, Store: openStore(), StoreID: "sess", Limiter: NewLimiter(1)}
	restored, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restored.History()); got != len(prefix) {
		t.Fatalf("restored session has %d observations, want %d", got, len(prefix))
	}
	hist := drive(t, restored, cfg2.Problem)
	if len(hist) <= len(prefix) {
		t.Fatal("restored session did not continue past the snapshot")
	}
	for i := range prefix {
		for j := range prefix[i].X {
			if math.Float64bits(hist[i].X[j]) != math.Float64bits(prefix[i].X[j]) {
				t.Fatalf("obs %d: restored run rewrote the snapshot prefix", i)
			}
		}
	}
}

// TestSessionConfigValidation: a Problem, a Store with a StoreID and a
// Limiter are mandatory.
func TestSessionConfigValidation(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"problem": func(c *Config) { c.Problem = nil },
		"store":   func(c *Config) { c.Store = nil },
		"storeID": func(c *Config) { c.StoreID = "" },
		"limiter": func(c *Config) { c.Limiter = nil },
	} {
		cfg := memConfig(testfunc.Forrester(), fastCore(6), 1)
		mut(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Fatalf("Open without a %s must fail", name)
		}
	}
}

// TestLimiter: a full limiter blocks Acquire until Release or context
// cancellation.
func TestLimiter(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := l.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full limiter: want DeadlineExceeded, got %v", err)
	}
	l.Release()
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("released limiter must admit: %v", err)
	}
	l.Release()
}
