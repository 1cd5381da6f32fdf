package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/testfunc"
)

// TestStoreCheckpointerOracle pins the migration path of a flat checkpoint
// file: a Marshal() snapshot at <dir>/<id>.ckpt.json, the layout earlier
// releases of mfbo -checkpoint wrote, restores through the fs store to the
// same bytes and snapshot the store path itself persists, and both resume
// onto the same trajectory.
func TestStoreCheckpointerOracle(t *testing.T) {
	p := testfunc.ConstrainedSynthetic()
	const budget, seed = 6.0, 91

	fs, err := storage.NewFS(storage.FSConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var last *Checkpoint
	persist := StoreCheckpointer(fs, "run")
	cfg := fastCfg(budget)
	cfg.Checkpointer = func(ck *Checkpoint) error {
		last = ck
		return persist(ck)
	}
	if _, err := Optimize(p, cfg, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}

	// The same snapshot as a flat legacy file in a directory of its own.
	flatDir := t.TempDir()
	data, err := last.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(flatDir, "run.ckpt.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := storage.NewFS(storage.FSConfig{Dir: flatDir})
	if err != nil {
		t.Fatal(err)
	}
	storeBytes, err := fs.Get(storage.KindCheckpoint, "run")
	if err != nil {
		t.Fatal(err)
	}
	flatBytes, err := legacy.Get(storage.KindCheckpoint, "run")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storeBytes, data) || !bytes.Equal(flatBytes, data) {
		t.Fatalf("checkpoint payloads differ: store %d, flat %d, Marshal %d bytes",
			len(storeBytes), len(flatBytes), len(data))
	}

	fromStore, err := LoadCheckpointFromStore(fs, "run")
	if err != nil {
		t.Fatal(err)
	}
	fromFlat, err := LoadCheckpointFromStore(legacy, "run")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStore, fromFlat) {
		t.Fatal("loaded checkpoints differ between store and flat layouts")
	}

	// Both resume onto the same continuation (same seed, extended budget).
	rcfg := fastCfg(budget * 2)
	fromStore.Budget, fromFlat.Budget = budget*2, budget*2
	resStore, err := Resume(context.Background(), p, rcfg, rand.New(rand.NewSource(7)), fromStore)
	if err != nil {
		t.Fatal(err)
	}
	resFlat, err := Resume(context.Background(), p, rcfg, rand.New(rand.NewSource(7)), fromFlat)
	if err != nil {
		t.Fatal(err)
	}
	if len(resStore.History) <= len(last.History) {
		t.Fatalf("resume did not continue: %d <= %d observations", len(resStore.History), len(last.History))
	}
	if !reflect.DeepEqual(resStore.History, resFlat.History) {
		t.Fatal("resumed trajectories diverged between store and flat snapshots")
	}
}

func TestLoadCheckpointFromStoreNotFound(t *testing.T) {
	mem := storage.NewMem(storage.MemConfig{})
	if _, err := LoadCheckpointFromStore(mem, "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v, want storage.ErrNotFound", err)
	}
}

// TestEveryTellCheckpoints pins the ack-durability cadence: one checkpoint
// per ingested observation, initialization included.
func TestEveryTellCheckpoints(t *testing.T) {
	calls := 0
	cfg := fastCfg(4)
	cfg.Checkpointer = func(*Checkpoint) error { calls++; return nil }
	res, err := Optimize(testfunc.Forrester(), cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(res.History) {
		t.Fatalf("%d checkpoints for %d observations, want one per Tell", calls, len(res.History))
	}
}

// TestCheckpointFaultIsRetriable: a transient checkpoint failure must stall
// the engine (Tell errors, Ask refuses work) without killing it — once the
// flush succeeds the run continues on the exact clean-run trajectory.
func TestCheckpointFaultIsRetriable(t *testing.T) {
	p := testfunc.Forrester()
	const budget, seed = 4.0, 17

	clean := fastCfg(budget)
	ref, err := Optimize(p, clean, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("transient disk fault")
	failures := 0
	calls := 0
	cfg := fastCfg(budget)
	cfg.Checkpointer = func(*Checkpoint) error {
		calls++
		if calls == 3 || calls == 4 { // fail one write and its first retry
			failures++
			return boom
		}
		return nil
	}
	eng, err := NewEngine(p, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sawTellFault, sawAskFault := false, false
	for {
		sug, err := eng.Ask(ctx)
		if errors.Is(err, boom) {
			// Dirty engine: no new work until the flush goes through.
			sawAskFault = true
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("Ask: %v", err)
			}
			break
		}
		ev := p.Evaluate(sug.X, sug.Fid)
		if err := eng.Tell(sug.X, sug.Fid, ev); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("Tell: %v", err)
			}
			sawTellFault = true // ingested but not durable; loop retries Ask
		}
	}
	if !sawTellFault || !sawAskFault {
		t.Fatalf("fault not exercised: tell=%v ask=%v (failures=%d)", sawTellFault, sawAskFault, failures)
	}
	res, err := eng.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.History, ref.History) {
		t.Fatal("transient checkpoint fault changed the trajectory")
	}
}
