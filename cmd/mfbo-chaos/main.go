// Command mfbo-chaos is the full-stack torture runner: it drives a real
// mfbod-style daemon process through repeated SIGKILL-mid-write crash/restart
// cycles — with storage fault injection underneath (MFBO_STORAGE_CHAOS) and
// TCP-level network faults in front (connection cuts via a chaos proxy) —
// while internal/torture checks the crash-consistency contract from outside
// the process:
//
//   - no acknowledged observation is ever lost across any crash,
//   - no suggestion is offered again after its report was acked,
//   - the optimization still converges.
//
// The runner re-executes its own binary as the daemon child (flag -child), so
// a single `go run ./cmd/mfbo-chaos` needs no other artifacts:
//
//	mfbo-chaos -cycles 25 -chaos 1:0.05 -net-cut 25ms
//	mfbo-chaos -cycles 10 -chaos 0:0 -corrupt-every 0   # crashes only
//
// On success it prints the run report plus the final daemon's mfbo_storage_*
// metrics; any invariant violation exits non-zero. See DESIGN.md §11.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/torture"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("mfbo-chaos: ")

	child := flag.Bool("child", false, "run as the daemon child (internal)")
	dir := flag.String("dir", "", "durable state directory (default: a fresh temp dir, removed on success)")
	gens := flag.Int("generations", 5, "checkpoint generations kept per record")
	cycles := flag.Int("cycles", 25, "SIGKILL crash/restart cycles before the convergence pass")
	workers := flag.Int("workers", 3, "concurrent evaluator loops")
	acksPerCycle := flag.Int("acks-per-cycle", 1, "fresh acks a cycle waits for before killing the daemon")
	session := flag.String("session", "torture", "session ID")
	budget := flag.Float64("budget", 0, "simulation budget (0 = torture default)")
	initLow, initHigh := flag.Int("init-low", 0, "low-fidelity design points (0 = default)"), flag.Int("init-high", 0, "high-fidelity design points (0 = default)")
	seed := flag.Int64("seed", 0, "session seed (0 = default)")
	chaos := flag.String("chaos", "1:0.05", "storage fault injection seed:rate for the child (\"\" or rate 0 = off); the seed advances every restart")
	netCut := flag.Duration("net-cut", 25*time.Millisecond, "sever every live client connection this often through a TCP chaos proxy (0 = no proxy)")
	corruptEvery := flag.Int("corrupt-every", 5, "corrupt the newest manifest generation after every Nth crash, forcing rollback+quarantine on resume (0 = never)")
	timeout := flag.Duration("timeout", 10*time.Minute, "whole-run deadline")
	metricsOut := flag.String("metrics-out", "", "also write the final daemon's full /metrics exposition to this file (for promlint)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("mfbo-chaos"))
		return
	}

	if *child {
		runChild(*dir, *gens)
		return
	}

	keepDir := *dir != ""
	if *dir == "" {
		d, err := os.MkdirTemp("", "mfbo-chaos-*")
		if err != nil {
			log.Fatal(err)
		}
		*dir = d
	}

	bin, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	ctl := &proc{bin: bin, dir: *dir, gens: *gens, chaos: *chaos}
	defer ctl.Kill()

	var controller torture.DaemonController = ctl
	var proxy *torture.Proxy
	if *netCut > 0 {
		proxy, err = torture.NewProxy("127.0.0.1:0") // retargeted on first Start
		if err != nil {
			log.Fatal(err)
		}
		defer proxy.Close()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(*netCut):
					proxy.CutAll()
				}
			}
		}()
		controller = &proxied{ctl: ctl, proxy: proxy}
	}

	// Between-cycle storage sabotage: corrupting the newest manifest head
	// while the daemon is dead forces the next resume through the rollback
	// + quarantine path (the manifest is rewritten identically on every
	// resume, so no data is at stake).
	corruptions := 0
	between := func(cycle int) {
		if *corruptEvery <= 0 || (cycle+1)%*corruptEvery != 0 {
			return
		}
		fs, err := storage.NewFS(storage.FSConfig{Dir: *dir, Generations: *gens})
		if err != nil {
			log.Printf("corrupt hook: %v", err)
			return
		}
		if err := fs.CorruptHead(storage.KindManifest, *session, 9); err != nil {
			log.Printf("corrupt manifest head after cycle %d: %v", cycle, err)
			return
		}
		corruptions++
		log.Printf("cycle %d: corrupted newest manifest generation (total %d)", cycle, corruptions)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rep, err := torture.Run(ctx, controller, torture.Options{
		Session:       *session,
		Budget:        *budget,
		InitLow:       *initLow,
		InitHigh:      *initHigh,
		Seed:          *seed,
		Workers:       *workers,
		Cycles:        *cycles,
		AcksPerCycle:  *acksPerCycle,
		BetweenCycles: between,
		Logf:          log.Printf,
	})
	if rep != nil {
		log.Printf("report: kills=%d acked=%d duplicates=%d finalObs=%d converged=%v violations=%d",
			rep.Kills, rep.Acked, rep.Duplicates, rep.FinalObs, rep.Converged, len(rep.Violations))
	}
	if err != nil {
		log.Fatalf("torture run: %v", err)
	}

	dumpStorageMetrics(ctl.URL(), *metricsOut)
	if proxy != nil {
		log.Printf("network chaos: %d connections severed", proxy.Cuts())
	}

	failed := false
	for _, v := range rep.Violations {
		log.Printf("INVARIANT VIOLATED: %s", v)
		failed = true
	}
	if !rep.Converged {
		log.Print("FAIL: run did not converge")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	if !keepDir {
		ctl.Kill() // release the dir before removing it
		os.RemoveAll(*dir)
	}
	log.Printf("OK: %d kill cycles, %d acked observations, zero lost, zero double-offered", rep.Kills, rep.Acked)
}

// dumpStorageMetrics scrapes the (still running) final daemon, prints the
// storage-engine counters, and optionally saves the whole exposition.
func dumpStorageMetrics(url, outFile string) {
	if url == "" {
		return
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		log.Printf("metrics scrape: %v", err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Printf("metrics scrape: %v", err)
		return
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "mfbo_storage_") {
			log.Printf("metric %s", line)
		}
	}
	if outFile != "" {
		if err := os.WriteFile(outFile, body, 0o644); err != nil {
			log.Printf("metrics out: %v", err)
		}
	}
}

// proc runs the daemon as a real child process and kills it with SIGKILL —
// the honest version of the in-process controller used by the -race tests.
type proc struct {
	bin   string
	dir   string
	gens  int
	chaos string

	mu        sync.Mutex
	cmd       *exec.Cmd
	url       string
	lifetimes int
}

// Start spawns a fresh daemon child over the shared state directory and
// returns its base URL once the child reports its listen address. Idempotent
// while a child is running.
func (p *proc) Start() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd != nil {
		return p.url, nil
	}
	cmd := exec.Command(p.bin, "-child", "-dir", p.dir, "-generations", strconv.Itoa(p.gens))
	cmd.Env = os.Environ()
	if cfg, ok, err := storage.ParseChaosEnv(p.chaos); err != nil {
		return "", err
	} else if ok {
		// Advance the seed every lifetime: a restarted process must draw a
		// fresh fault schedule, not replay the previous one.
		_, rate, _ := strings.Cut(p.chaos, ":")
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d:%s", storage.ChaosEnv, cfg.Seed+int64(p.lifetimes), rate))
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	url, err := awaitListen(stdout)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return "", fmt.Errorf("child never reported its address: %w", err)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained for the child's lifetime
	p.cmd, p.url = cmd, url
	p.lifetimes++
	return url, nil
}

// Kill delivers SIGKILL — no shutdown hooks, no goodbye writes — and reaps
// the child.
func (p *proc) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd, p.url = nil, ""
}

// URL returns the live child's base URL ("" when dead).
func (p *proc) URL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.url
}

// awaitListen reads child stdout until the LISTEN line.
func awaitListen(r io.Reader) (string, error) {
	type res struct {
		url string
		err error
	}
	ch := make(chan res, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if url, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
				ch <- res{url: url}
				return
			}
		}
		ch <- res{err: fmt.Errorf("stdout closed: %v", sc.Err())}
	}()
	select {
	case r := <-ch:
		return r.url, r.err
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("timed out")
	}
}

// proxied routes the controller through the TCP chaos proxy, retargeting it
// on every restart (each child lifetime listens on a fresh port).
type proxied struct {
	ctl   *proc
	proxy *torture.Proxy
}

func (p *proxied) Start() (string, error) {
	url, err := p.ctl.Start()
	if err != nil {
		return "", err
	}
	p.proxy.SetTarget(strings.TrimPrefix(url, "http://"))
	return p.proxy.URL(), nil
}

func (p *proxied) Kill() { p.ctl.Kill() }

// runChild is the daemon side: a hardened-FS-backed server over -dir (chaos
// from MFBO_STORAGE_CHAOS, like mfbod), serving the v1 API plus /metrics on
// an ephemeral loopback port announced as "LISTEN <url>" on stdout. It runs
// until killed — the parent owns its lifetime.
func runChild(dir string, gens int) {
	log.SetPrefix("mfbo-chaos[child]: ")
	if dir == "" {
		log.Fatal("-child requires -dir")
	}
	rec := telemetry.NewRecorder(nil, 0)
	fs, err := storage.NewFS(storage.FSConfig{Dir: dir, Generations: gens, Telemetry: rec})
	if err != nil {
		log.Fatal(err)
	}
	var store storage.Store = fs
	if cfg, ok, err := storage.ParseChaosEnv(os.Getenv(storage.ChaosEnv)); err != nil {
		log.Fatal(err)
	} else if ok {
		store = storage.NewChaos(fs, cfg)
	}
	srv, err := server.New(server.Config{
		Store:     store,
		Telemetry: rec,
		Dispatch:  torture.LeaseMachine(),
	})
	if err != nil {
		log.Fatal(err)
	}
	root := http.NewServeMux()
	root.Handle("/v1/", srv)
	root.Handle("GET /metrics", rec.Metrics.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LISTEN http://%s\n", ln.Addr())
	log.Fatal(http.Serve(ln, root))
}
