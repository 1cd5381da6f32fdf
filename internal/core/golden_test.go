package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimize"
	"repro/internal/problem"
	"repro/internal/robust"
	"repro/internal/telemetry"
	"repro/internal/testbench"
	"repro/internal/testfunc"
)

// goldenPaths hold the frozen two-fidelity trajectories. The fixtures were
// recorded once, against the dedicated two-fidelity engine that preceded the
// fidelity-ladder path, and are the reference: they are never regenerated,
// so any change to a K=2 proposal, rung decision, checkpoint byte or event
// shows up here as a failure. The second file holds the high-fidelity
// blackout runs, which pin the low-fidelity-only rung of the degradation
// walk and its reason wording.
var goldenPaths = []string{"testdata/k2_golden.json", "testdata/k2_golden_high_blackout.json"}

// goldenRecord is one pinned run.
type goldenRecord struct {
	// Steps lists every observation in history order as
	// "<rung> <Float64bits of x[0]> <Float64bits of x[1]> ...", bits in hex.
	Steps []string `json:"steps"`
	// Checkpoint is the SHA-256 of the final snapshot's Marshal bytes.
	Checkpoint string `json:"checkpoint_sha256"`
	// Events is the SHA-256 of the run and iteration events with their
	// wall-clock timings zeroed (sequential drives only).
	Events string `json:"events_sha256,omitempty"`
}

// goldenCase is one run configuration: a problem, a config, a seed and a
// drive (batch == 0 drives Ask/Tell sequentially, batch == q drives
// AskBatch(q) answering the newest suggestion first).
type goldenCase struct {
	name  string
	mk    func() problem.Problem
	cfg   func() Config
	seed  int64
	batch int
}

func goldenCases() []goldenCase {
	poweramp := func(c *Config) {
		c.MSP = optimize.MSPConfig{Starts: 4, LocalIter: 15}
	}
	problems := []struct {
		name string
		mk   func() problem.Problem
		tune func(*Config)
	}{
		{"pedagogical", func() problem.Problem { return testfunc.Pedagogical() }, nil},
		{"constrained", func() problem.Problem { return testfunc.ConstrainedSynthetic() }, nil},
		{"poweramp", func() problem.Problem { return testbench.NewPowerAmp() }, poweramp},
	}
	schedules := []struct {
		name  string
		mod   func(*Config)
		batch int
	}{
		{"exact", nil, 0},
		{"warm-skip", func(c *Config) { c.RefitEvery = 2 }, 0},
		{"incremental", func(c *Config) { c.Incremental = true; c.RefitEvery = 3 }, 0},
		{"batch3", nil, 3},
	}
	var cases []goldenCase
	for _, pr := range problems {
		for _, sc := range schedules {
			for seed := int64(1); seed <= 3; seed++ {
				pr, sc := pr, sc
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s/%s/seed%d", pr.name, sc.name, seed),
					mk:   pr.mk,
					cfg: func() Config {
						c := fastCfg(8)
						if pr.tune != nil {
							pr.tune(&c)
						}
						if sc.mod != nil {
							sc.mod(&c)
						}
						return c
					},
					seed:  seed,
					batch: sc.batch,
				})
			}
		}
	}
	// Degraded runs: a total low-fidelity blackout (every proposal falls back
	// to random exploration) and a chaotic run on a 4-point low window.
	for seed := int64(29); seed <= 31; seed++ {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("blackout/seed%d", seed),
			mk: func() problem.Problem {
				ch := robust.NewChaos(testfunc.Forrester(), robust.ChaosConfig{
					Low:  robust.FidelityChaos{FailRate: 1},
					Seed: 23,
				})
				return robust.Wrap(ch, robust.Policy{MaxRetries: -1, Sleep: noSleep})
			},
			cfg: func() Config {
				c := fastCfg(6)
				c.MaxIterations = 6
				return c
			},
			seed: seed,
		})
	}
	for seed := int64(19); seed <= 21; seed++ {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("chaos-window4/seed%d", seed),
			mk:   func() problem.Problem { return chaoticProblem(testfunc.ConstrainedSynthetic(), 0.3, 17) },
			cfg: func() Config {
				c := fastCfg(6)
				c.MaxLowData = 4
				return c
			},
			seed: seed,
		})
	}
	// A high-fidelity blackout: 80% of high-fidelity simulations fail, and
	// under this chaos seed the whole initial high design does. Until a high
	// evaluation succeeds the fused model has no data, so the adaptive
	// iterations run on the low-fidelity GP alone — fitted from scratch, kept
	// in the incremental cache, or under batch fantasies.
	blackoutHigh := []struct {
		name  string
		mod   func(*Config)
		batch int
	}{
		{"exact", nil, 0},
		{"incremental", func(c *Config) { c.Incremental = true; c.RefitEvery = 3 }, 0},
		{"batch3", nil, 3},
	}
	for _, sc := range blackoutHigh {
		for seed := int64(29); seed <= 31; seed++ {
			sc := sc
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("high-blackout/%s/seed%d", sc.name, seed),
				mk: func() problem.Problem {
					ch := robust.NewChaos(testfunc.Forrester(), robust.ChaosConfig{
						High: robust.FidelityChaos{FailRate: 0.8},
						Seed: 3,
					})
					return robust.Wrap(ch, robust.Policy{MaxRetries: -1, Sleep: noSleep})
				},
				cfg: func() Config {
					c := fastCfg(6)
					c.MaxIterations = 6
					if sc.mod != nil {
						sc.mod(&c)
					}
					return c
				},
				seed:  seed,
				batch: sc.batch,
			})
		}
	}
	return cases
}

// eventHash digests the run and iteration events of a run, with the
// non-deterministic wall-clock fields cleared.
type eventHash struct {
	mu sync.Mutex
	h  hash.Hash
}

func (e *eventHash) Emit(ev telemetry.Event) {
	var v any
	switch {
	case ev.Run != nil:
		v = ev.Run
	case ev.Iteration != nil:
		it := *ev.Iteration
		it.FitMs, it.AcqMs = 0, 0
		v = &it
	default:
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		// A low-fidelity-only iteration with no high-fidelity incumbent
		// records AcqHigh = +Inf, which JSON cannot encode; digest the Go
		// formatting of such events instead.
		b = []byte(fmt.Sprintf("%v", v))
	}
	e.mu.Lock()
	e.h.Write(b)
	e.h.Write([]byte{'\n'})
	e.mu.Unlock()
}

// runGolden drives one case to completion and records it.
func runGolden(t *testing.T, gc goldenCase) goldenRecord {
	t.Helper()
	p := gc.mk()
	cfg := gc.cfg()
	var events *eventHash
	if gc.batch == 0 {
		events = &eventHash{h: sha256.New()}
		cfg.Telemetry = telemetry.NewRecorder(events, 0)
	}
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(gc.seed)))
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if gc.batch > 0 {
		res = driveBatch(t, eng, p, gc.batch)
	} else {
		res = driveManually(t, eng, p)
	}
	var rec goldenRecord
	for _, ob := range res.History {
		var b strings.Builder
		fmt.Fprintf(&b, "%d", int(ob.Fid))
		for _, v := range ob.X {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		rec.Steps = append(rec.Steps, b.String())
	}
	data, err := eng.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	rec.Checkpoint = hex.EncodeToString(sum[:])
	if events != nil {
		rec.Events = hex.EncodeToString(events.h.Sum(nil))
	}
	return rec
}

// TestGoldenK2Trajectories replays every frozen two-fidelity run and demands
// bit identity: the same points at the same rungs, the same final checkpoint
// bytes and the same decision-event stream.
func TestGoldenK2Trajectories(t *testing.T) {
	want := map[string]goldenRecord{}
	for _, path := range goldenPaths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs map[string]goldenRecord
		if err := json.Unmarshal(raw, &recs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for name, rec := range recs {
			want[name] = rec
		}
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("fixture holds %d runs, the suite defines %d", len(want), len(cases))
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			w, ok := want[gc.name]
			if !ok {
				t.Fatalf("no fixture for %s", gc.name)
			}
			got := runGolden(t, gc)
			if len(got.Steps) != len(w.Steps) {
				t.Fatalf("%d observations, fixture has %d", len(got.Steps), len(w.Steps))
			}
			for i := range got.Steps {
				if got.Steps[i] != w.Steps[i] {
					t.Fatalf("observation %d: %q, fixture %q", i, got.Steps[i], w.Steps[i])
				}
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("checkpoint/events digest drifted:\n got %s / %s\nwant %s / %s",
					got.Checkpoint, got.Events, w.Checkpoint, w.Events)
			}
		})
	}
}
