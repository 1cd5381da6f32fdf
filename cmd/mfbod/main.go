// Command mfbod is the optimization service daemon: it serves the JSON/HTTP
// API of internal/server, turning the MFBO engine into
// optimization-as-a-service for external evaluators (SPICE farms, job
// schedulers, remote clients via internal/client).
//
//	mfbod -addr :8932 -checkpoint-dir /var/lib/mfbo
//
// Every session is persisted to -checkpoint-dir after each iteration; a
// daemon restarted over the same directory restores its sessions lazily on
// first touch, so crashed deployments resume exactly where their checkpoints
// left off. Without -checkpoint-dir sessions persist in memory: they survive
// idle eviction but not a restart. SIGINT/SIGTERM trigger a graceful
// shutdown: in-flight requests (surrogate fits included) drain, then every
// live session is persisted.
//
// The daemon is live-introspectable (see DESIGN.md "Observability"):
//
//	GET /metrics                        Prometheus text exposition
//	GET /debug/vars                     the same registry as expvar JSON
//	GET /debug/pprof/...                with -pprof
//	GET /v1/sessions/{id}/telemetry     per-session structured event ring
//	GET /v1/healthz                     uptime, sessions, checkpoint-dir probe
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/dispatch"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("mfbod: ")

	addr := flag.String("addr", ":8932", "listen address")
	ckptDir := flag.String("checkpoint-dir", "", "persist sessions under this directory (empty = in memory: sessions survive idle eviction but not a restart)")
	storageGens := flag.Int("storage-generations", 0, "checkpoint generations kept per record for rollback (0 = default 3)")
	idle := flag.Duration("idle-timeout", 30*time.Minute, "persist+evict sessions idle for this long (0 = never)")
	maxFits := flag.Int("max-fits", 0, "max concurrently fitting sessions (0 = number of CPUs)")
	maxSessions := flag.Int("max-sessions", 0, "max live sessions (0 = unbounded)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	verbose := flag.Bool("v", false, "log every session event")
	metrics := flag.Bool("metrics", true, "serve Prometheus metrics at /metrics and expvar JSON at /debug/vars")
	ringSize := flag.Int("event-ring", 512, "per-session telemetry event-ring capacity (<0 disables)")
	traceSample := flag.Int("trace-sample", 16, "emit every n-th root trace span into session event streams (1 = all)")
	telemetryPath := flag.String("telemetry", "", "append completed trace spans as JSONL to this file (merge fleet-wide with mfbo-trace -merge)")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "default evaluation-lease duration for the worker dispatch queue")
	maxInFlight := flag.Int("max-inflight", 4, "max concurrently-leased evaluations per session (dispatch backpressure)")
	leaseAttempts := flag.Int("lease-attempts", 3, "lease expiries before an evaluation is abandoned as failed")
	leaseScan := flag.Duration("lease-scan", time.Second, "dispatch-queue expiry scan period")
	replicaID := flag.String("replica-id", "", "identify this process as one replica of a sharded deployment (requires a -checkpoint-dir shared by all replicas; see DESIGN.md §13)")
	ownershipTTL := flag.Duration("ownership-ttl", 0, "session-ownership lease duration for sharded deployments (0 = default 5s)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mfbod"))
		return
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}

	// The process-wide recorder: one metrics registry shared by the HTTP
	// layer and every session, sampled trace spans into each session's ring
	// and (with -telemetry) into the process span log for fleet-wide
	// assembly.
	var spanLog *telemetry.JSONL
	if *telemetryPath != "" {
		var err error
		if spanLog, err = telemetry.OpenJSONL(*telemetryPath); err != nil {
			log.Fatal(err)
		}
	}
	var rec *telemetry.Recorder
	if *metrics || spanLog != nil {
		var sink telemetry.Sink
		if spanLog != nil {
			sink = spanLog
		}
		rec = telemetry.NewRecorder(sink, *traceSample)
		if *replicaID != "" {
			rec.SetService("mfbod/" + *replicaID)
		} else {
			rec.SetService("mfbod")
		}
	}

	if *replicaID != "" && *ckptDir == "" {
		log.Fatal("-replica-id requires a -checkpoint-dir shared by every replica")
	}
	// Resolve the storage engine: the fs backend under -checkpoint-dir, else
	// the mem backend. The MFBO_STORAGE_CHAOS=seed:rate knob wraps either
	// with deterministic fault injection (see internal/storage) so torture
	// runs can vary backends without code changes. Never set it on a
	// deployment you care about.
	var store storage.Store
	if *ckptDir != "" {
		fs, err := storage.NewFS(storage.FSConfig{Dir: *ckptDir, Generations: *storageGens, Telemetry: rec})
		if err != nil {
			log.Fatal(err)
		}
		store = fs
	} else {
		store = storage.NewMem(storage.MemConfig{Generations: *storageGens})
	}
	if cfg, ok, err := storage.ParseChaosEnv(os.Getenv(storage.ChaosEnv)); err != nil {
		log.Fatal(err)
	} else if ok {
		store = storage.NewChaos(store, cfg)
		log.Printf("storage fault injection ON (%s=%s) — torture use only", storage.ChaosEnv, os.Getenv(storage.ChaosEnv))
	}

	srv, err := server.New(server.Config{
		Store:             store,
		IdleTimeout:       *idle,
		MaxConcurrentFits: *maxFits,
		MaxSessions:       *maxSessions,
		Logf:              logf,
		Telemetry:         rec,
		EventRingSize:     *ringSize,
		ReplicaID:         *replicaID,
		OwnershipTTL:      *ownershipTTL,
		Dispatch: dispatch.Config{
			LeaseTTL:    *leaseTTL,
			MaxInFlight: *maxInFlight,
			MaxAttempts: *leaseAttempts,
			ScanEvery:   *leaseScan,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Mount the introspection surface next to the API. The API keeps the
	// whole /v1/ prefix; observability lives under /metrics and /debug/.
	root := http.NewServeMux()
	root.Handle("/v1/", srv)
	if rec != nil {
		root.Handle("GET /metrics", rec.Metrics.Handler())
		expvar.Publish("mfbo", expvar.Func(func() any { return rec.Metrics.Snapshot() }))
		root.Handle("GET /debug/vars", expvar.Handler())
	}
	if *enablePprof {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	hs := &http.Server{
		Addr:         *addr,
		Handler:      root,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 10 * time.Minute, // suggests may wait on a fit slot
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("listening on %s (checkpoint dir %q)", *addr, *ckptDir)

	select {
	case <-ctx.Done():
		log.Print("shutting down…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
	if spanLog != nil {
		if err := spanLog.Close(); err != nil {
			log.Printf("telemetry: %v", err)
		}
	}
	log.Print("bye")
}
