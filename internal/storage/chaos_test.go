package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestChaosDeterministicSequence(t *testing.T) {
	run := func() (ChaosCounts, []error) {
		c := NewChaos(NewMem(MemConfig{}), ChaosConfig{
			Seed:          42,
			WriteErrRate:  0.2,
			TornWriteRate: 0.2,
			ReadErrRate:   0.2,
		})
		var errs []error
		for i := 0; i < 50; i++ {
			errs = append(errs, c.Put(KindCheckpoint, "run", []byte{byte(i)}))
			_, err := c.Get(KindCheckpoint, "run")
			errs = append(errs, err)
		}
		return c.Counts(), errs
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 {
		t.Fatalf("same seed, different fault counts: %+v vs %+v", c1, c2)
	}
	if c1.WriteErrs == 0 || c1.TornWrites == 0 || c1.ReadErrs == 0 {
		t.Fatalf("expected every configured fault kind to fire over 50 ops: %+v", c1)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("same seed, different error at op %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestChaosInjectedErrorsAreTyped(t *testing.T) {
	c := NewChaos(NewMem(MemConfig{}), ChaosConfig{WriteErrRate: 1})
	err := c.Put(KindCheckpoint, "run", []byte("x"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Put err = %v, want ErrInjected", err)
	}
	c = NewChaos(NewMem(MemConfig{}), ChaosConfig{ReadErrRate: 1})
	if _, err := c.Get(KindCheckpoint, "run"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get err = %v, want ErrInjected", err)
	}
}

// TestChaosTornWriteRollsBack: a chaos-torn write must be recoverable by
// the backend exactly like a real torn write — prior generation survives.
func TestChaosTornWriteRollsBack(t *testing.T) {
	inner := NewMem(MemConfig{})
	// Seed 6 at rate 0.5 rolls torn on the first Put, clean on the second.
	c := NewChaos(inner, ChaosConfig{Seed: 6, TornWriteRate: 0.5})
	good := []byte("durable")
	if err := inner.Put(KindCheckpoint, "run", good); err != nil {
		t.Fatal(err)
	}
	err := c.Put(KindCheckpoint, "run", []byte("doomed"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn Put err = %v, want ErrInjected", err)
	}
	if !c.TornHead(KindCheckpoint, "run") {
		t.Fatal("TornHead = false after torn write")
	}
	got, err := inner.Get(KindCheckpoint, "run")
	if err != nil || !bytes.Equal(got, good) {
		t.Fatalf("backend Get after torn write = %q, %v; want rollback to %q", got, err, good)
	}
	// A successful Put clears the torn marker.
	if err := c.Put(KindCheckpoint, "run", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if c.TornHead(KindCheckpoint, "run") {
		t.Fatal("TornHead = true after successful Put")
	}
}

// TestChaosFsyncLieLostOnCrash: a lied-about write reads back fine until
// Crash(), after which the head is torn and recovery rolls back — the
// power-loss-after-lying-fsync scenario.
func TestChaosFsyncLieLostOnCrash(t *testing.T) {
	inner := NewMem(MemConfig{})
	if err := inner.Put(KindCheckpoint, "run", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	c := NewChaos(inner, ChaosConfig{FsyncLieRate: 1})
	if err := c.Put(KindCheckpoint, "run", []byte("volatile")); err != nil {
		t.Fatalf("lied Put must report success, got %v", err)
	}
	if got, _ := c.Get(KindCheckpoint, "run"); !bytes.Equal(got, []byte("volatile")) {
		t.Fatalf("pre-crash Get = %q, want the lied write visible", got)
	}
	c.Crash()
	if _, err := c.Get(KindCheckpoint, "run"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Get via decorator = %v, want ErrCrashed", err)
	}
	if err := c.Put(KindCheckpoint, "run", []byte("zombie")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash Put = %v, want ErrCrashed", err)
	}
	// The "restarted process" opens the backend directly: the lie is gone,
	// the durable generation survives.
	got, err := inner.Get(KindCheckpoint, "run")
	if err != nil || !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("backend Get after crash = %q, %v; want rollback to durable", got, err)
	}
}

// TestChaosCrashFencesInFlightWrites: a write that began before Crash lands
// before Crash returns, or not at all — as with a process killed mid-write.
// Unfenced, a write stalled in the dead lifetime landed after its
// successor's newer record and rolled the record back: the crash/restart
// torture then re-offered suggestions whose reports had been acked.
func TestChaosCrashFencesInFlightWrites(t *testing.T) {
	inner := NewMem(MemConfig{})
	dying := NewChaos(inner, ChaosConfig{LatencyRate: 1, Latency: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- dying.Put(KindCheckpoint, "run", []byte("old")) }()
	time.Sleep(10 * time.Millisecond) // the write is stalled in its latency fault
	dying.Crash()
	if err := NewChaos(inner, ChaosConfig{}).Put(KindCheckpoint, "run", []byte("new")); err != nil {
		t.Fatal(err)
	}
	<-done
	got, err := inner.Get(KindCheckpoint, "run")
	if err != nil || !bytes.Equal(got, []byte("new")) {
		t.Fatalf("backend Get = %q, %v; want the successor's record, not a write of the crashed lifetime", got, err)
	}
}

func TestChaosCleanPassThrough(t *testing.T) {
	c := NewChaos(NewMem(MemConfig{}), ChaosConfig{})
	if err := c.Put(KindManifest, "m", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(KindManifest, "m")
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	ids, err := c.List(KindManifest)
	if err != nil || len(ids) != 1 {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if err := c.Probe(); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(KindManifest, "m"); err != nil {
		t.Fatal(err)
	}
	if c.Counts() != (ChaosCounts{}) {
		t.Fatalf("clean run injected faults: %+v", c.Counts())
	}
}
