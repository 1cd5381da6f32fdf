package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fidelity"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/testfunc"
)

func TestSamplesQuantileIsExact(t *testing.T) {
	s := newSamples(0)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty recorder must answer NaN")
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(100) {
		s.Add(float64(i + 1)) // 1..100, shuffled
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.Count() != 100 {
		t.Errorf("Count = %d", s.Count())
	}
	one := newSamples(1)
	one.Add(7)
	if one.Quantile(0.99) != 7 || one.Quantile(0) != 7 {
		t.Error("a single sample is every quantile")
	}
}

func TestTimedStorePassesBytesAndErrorsThrough(t *testing.T) {
	inner := storage.NewMem(storage.MemConfig{})
	s := newTimedStore(inner, 0)
	data := []byte(`{"checkpoint":[1,2,3]}`)
	if err := s.Put(storage.KindCheckpoint, "a", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(storage.KindCheckpoint, "a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v; want the bytes put", got, err)
	}
	direct, err := inner.Get(storage.KindCheckpoint, "a")
	if err != nil || !bytes.Equal(direct, data) {
		t.Fatalf("inner store holds %q, %v", direct, err)
	}
	if _, err := s.Get(storage.KindCheckpoint, "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("missing record: %v, want ErrNotFound", err)
	}
	if err := s.Delete(storage.KindCheckpoint, "a"); err != nil {
		t.Fatal(err)
	}
	if ids, err := s.List(storage.KindCheckpoint); err != nil || len(ids) != 0 {
		t.Errorf("List after Delete = %v, %v", ids, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(storage.KindCheckpoint, "b", data); err == nil {
		t.Error("Put on a closed store must fail through the decorator")
	}
	c := s.counts()
	if c.Puts != 2 || c.PutBytes != int64(2*len(data)) || c.Gets != 2 {
		t.Errorf("counts = %+v", c)
	}
}

func TestTimedProblemKeepsLadderAndValues(t *testing.T) {
	inner := testfunc.Forrester3()
	stats := newEvalStats()
	p := newTimedProblem(inner, stats)
	if problem.NumFidelities(p) != 3 {
		t.Fatalf("rungs = %d, want 3", problem.NumFidelities(p))
	}
	want, err := fidelity.OfProblem(inner)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fidelity.OfProblem(p)
	if err != nil || !equalFloats(got.Costs(), want.Costs()) {
		t.Fatalf("ladder %v, %v; want %v", got.Costs(), err, want.Costs())
	}
	x := []float64{0.3}
	for r := 0; r < 3; r++ {
		f := problem.Fidelity(r)
		if a, b := p.Evaluate(x, f), inner.Evaluate(x, f); a.Objective != b.Objective {
			t.Errorf("rung %d: %v, want %v", r, a.Objective, b.Objective)
		}
	}
	p.Evaluate(x, problem.Fidelity(2))
	byRung, _ := stats.counts()
	if !equalInts(byRung, []int{1, 1, 2}) || stats.top.Count() != 2 {
		t.Errorf("per-rung counts %v, top samples %d", byRung, stats.top.Count())
	}
	if problem.NumFidelities(newTimedProblem(testfunc.Forrester(), stats)) != 2 {
		t.Error("a two-fidelity problem must stay two-fidelity")
	}
}

func TestTimingTransport(t *testing.T) {
	var sawTrace []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawTrace = append(sawTrace, r.Header.Get(telemetry.TraceparentHeader))
		switch routeOf(r.Method, r.URL.Path) {
		case "observe":
			w.WriteHeader(http.StatusConflict)
		case "lease":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "report":
			w.WriteHeader(http.StatusInternalServerError)
		}
		_, _ = w.Write([]byte("12345"))
	}))
	defer srv.Close()

	sink := telemetry.NewRing(16)
	roots := telemetry.NewTracer(sink, 1)
	probe := startProbe()
	defer probe.end()
	tr := newTimingTransport(roots, probe)
	defer tr.close()
	cl := tr.client()
	do := func(method, path, body, traceparent string) {
		t.Helper()
		req, err := http.NewRequestWithContext(context.Background(), method, srv.URL+path, bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		if traceparent != "" {
			req.Header.Set(telemetry.TraceparentHeader, traceparent)
		}
		resp, err := cl.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = resp.Body.Read(make([]byte, 64))
		resp.Body.Close()
	}
	do(http.MethodGet, "/v1/sessions/s1/suggest", "", "")
	do(http.MethodPost, "/v1/sessions/s1/observations", "abc", "")
	do(http.MethodPost, "/v1/sessions/s1/lease", "", "")
	do(http.MethodPost, "/v1/sessions/s1/report", "", "")
	const given = "00-0000000000000001000000000000000a-000000000000000b-01"
	do(http.MethodGet, "/v1/sessions/s1/suggest", "", given)

	sug := tr.route("suggest")
	if sug.Requests != 2 || sug.Millis.Count() != 2 || sug.Bytes != 10 {
		t.Errorf("suggest stats %+v", sug)
	}
	if ob := tr.route("observe"); ob.Failed != 0 || ob.Retried != 0 || ob.Bytes != 3+5 {
		t.Errorf("409 is a resync conflict, not a failure: %+v", ob)
	}
	if ls := tr.route("lease"); ls.Retried != 1 || ls.Failed != 0 {
		t.Errorf("503 is retried: %+v", ls)
	}
	if rp := tr.route("report"); rp.Failed != 1 || rp.Failures[500] != 1 {
		t.Errorf("500 is a failure: %+v", rp)
	}
	if f := tr.failures(); !strings.Contains(f, "report: 1×500") || !strings.Contains(f, "report 500: 12345") {
		t.Errorf("failures() = %q, want the count and the error body", f)
	}
	if tot := tr.totals("suggest"); tot.Requests != 3 {
		t.Errorf("totals without suggest = %d requests", tot.Requests)
	}
	for i, h := range sawTrace[:4] {
		if _, ok := telemetry.ParseTraceparent(h); !ok {
			t.Errorf("request %d carried no benchmark root span (%q)", i, h)
		}
	}
	if sawTrace[4] != given {
		t.Errorf("an existing traceparent was replaced: %q", sawTrace[4])
	}
	if n := len(sink.Snapshot()); n != 4 {
		t.Errorf("%d root spans emitted, want 4", n)
	}
}

func TestRouteOf(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{http.MethodPost, "/v1/sessions", "create"},
		{http.MethodDelete, "/v1/sessions/x", "delete"},
		{http.MethodGet, "/v1/sessions/x/suggest", "suggest"},
		{http.MethodPost, "/v1/sessions/x/observations", "observe"},
		{http.MethodGet, "/v1/sessions/x/history", "history"},
		{http.MethodPost, "/v1/sessions/x/lease", "lease"},
		{http.MethodPost, "/v1/sessions/x/report", "report"},
		{http.MethodPost, "/v1/leases/x/heartbeat", "heartbeat"},
		{http.MethodGet, "/v1/healthz", "healthz"},
		{http.MethodGet, "/metrics", "other"},
	} {
		if got := routeOf(c.method, c.path); got != c.want {
			t.Errorf("routeOf(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
