package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing(RingConfig{VNodes: 32, Seed: 7})
	a.SetReplicas([]string{"r1", "r2", "r3"})
	b := NewRing(RingConfig{VNodes: 32, Seed: 7})
	b.SetReplicas([]string{"r3", "r1", "r2", "r1"}) // order and duplicates must not matter
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("s%d", i)
		ao, bo := a.Owners(key, 1), b.Owners(key, 1)
		if len(ao) != 1 || len(bo) != 1 || ao[0] != bo[0] {
			t.Fatalf("placement differs for %s: %q vs %q", key, ao, bo)
		}
	}
}

func TestRingSeedChangesPlacement(t *testing.T) {
	a := NewRing(RingConfig{Seed: 1})
	a.SetReplicas([]string{"r1", "r2", "r3"})
	b := NewRing(RingConfig{Seed: 2})
	b.SetReplicas([]string{"r1", "r2", "r3"})
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("s%d", i)
		if a.Owners(key, 1)[0] != b.Owners(key, 1)[0] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("different seeds produced identical placement for every key")
	}
}

// TestRingBalance checks that virtual nodes spread sessions reasonably: with
// 3 replicas no replica should own more than twice its fair share.
func TestRingBalance(t *testing.T) {
	r := NewRing(RingConfig{VNodes: 64, Seed: 42})
	r.SetReplicas([]string{"r1", "r2", "r3"})
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		o := r.Owners(fmt.Sprintf("session-%d", i), 1)
		if len(o) != 1 {
			t.Fatal("empty ring")
		}
		counts[o[0]]++
	}
	fair := float64(n) / 3
	for rep, c := range counts {
		if math.Abs(float64(c)-fair) > fair {
			t.Fatalf("replica %s owns %d of %d sessions (fair share %.0f)", rep, c, n, fair)
		}
	}
}

// TestRingSequentialKeysSpread is the regression test for the avalanche
// finalizer: zero-padded sequential IDs (exactly what a load harness or any
// batch creator mints) differ only in trailing bytes, which raw FNV-1a maps
// into one sliver of the ring — every key on one replica. Each replica must
// own at least one of a small sequential batch's worth of fair share.
func TestRingSequentialKeysSpread(t *testing.T) {
	for _, seed := range []uint64{0, 7, 42, 99} {
		r := NewRing(RingConfig{VNodes: 64, Seed: seed})
		r.SetReplicas([]string{"ra", "rb", "rc"})
		counts := map[string]int{}
		for i := 0; i < 60; i++ {
			counts[r.Owners(fmt.Sprintf("lg-%05d", i), 1)[0]]++
		}
		if len(counts) != 3 {
			t.Fatalf("seed %d: 60 sequential keys landed on only %d replica(s): %v", seed, len(counts), counts)
		}
	}
}

// TestRingMinimalMovement checks the consistent-hashing property: removing
// one of three replicas must only move the sessions that replica owned.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing(RingConfig{VNodes: 64, Seed: 42})
	r.SetReplicas([]string{"r1", "r2", "r3"})
	before := map[string]string{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("s%d", i)
		before[key] = r.Owners(key, 1)[0]
	}
	r.SetReplicas([]string{"r1", "r2"})
	for key, was := range before {
		now := r.Owners(key, 1)[0]
		if was != "r3" && now != was {
			t.Fatalf("session %s moved %s→%s although its owner survived", key, was, now)
		}
		if was == "r3" && now == "r3" {
			t.Fatalf("session %s still placed on removed replica", key)
		}
	}
}

func TestRingOwnersPreferenceList(t *testing.T) {
	r := NewRing(RingConfig{VNodes: 16, Seed: 5})
	r.SetReplicas([]string{"r1", "r2", "r3"})
	owners := r.Owners("some-session", 3)
	if len(owners) != 3 {
		t.Fatalf("want 3 distinct owners, got %v", owners)
	}
	seen := map[string]bool{}
	for _, o := range owners {
		if seen[o] {
			t.Fatalf("duplicate replica in preference list: %v", owners)
		}
		seen[o] = true
	}
	if first := r.Owners("some-session", 1); first[0] != owners[0] {
		t.Fatalf("Owners(k, 1) %q != Owners(k, 3)[0] %q", first, owners[0])
	}
}

// fakeClock is a controllable time source for lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newLeases(t *testing.T, store storage.Store, replica string, clk *fakeClock) *Leases {
	t.Helper()
	l, err := NewLeases(LeaseConfig{Store: store, Replica: replica, TTL: time.Second, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLeaseClaimRenewExpireTakeover(t *testing.T) {
	store := storage.NewMem(storage.MemConfig{})
	clk := &fakeClock{t: time.UnixMilli(1_000_000)}
	a := newLeases(t, store, "ra", clk)
	b := newLeases(t, store, "rb", clk)

	// a claims fresh.
	info, err := a.Claim("s1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Owner != "ra" || info.Epoch != 1 {
		t.Fatalf("claim: %+v", info)
	}
	// b cannot claim a live lease, and learns who holds it.
	_, err = b.Claim("s1")
	var wo *WrongOwnerError
	if !errors.As(err, &wo) || wo.Owner != "ra" {
		t.Fatalf("want WrongOwnerError{ra}, got %v", err)
	}
	if !errors.Is(err, ErrNotOwner) {
		t.Fatal("WrongOwnerError must unwrap to ErrNotOwner")
	}
	// a renews within the TTL: epoch stable, expiry pushed.
	clk.advance(600 * time.Millisecond)
	renewed, err := a.Renew("s1", info.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if renewed.Epoch != info.Epoch || !renewed.Expires().After(info.Expires()) {
		t.Fatalf("renew: %+v vs %+v", renewed, info)
	}
	if err := a.Verify("s1", info.Epoch); err != nil {
		t.Fatal(err)
	}
	// a dies (stops renewing); after expiry b takes over under a new epoch.
	clk.advance(2 * time.Second)
	if err := a.Verify("s1", info.Epoch); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("expired lease must fail Verify, got %v", err)
	}
	got, err := b.Claim("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != "rb" || got.Epoch != info.Epoch+1 {
		t.Fatalf("takeover: %+v", got)
	}
	// The fence: a's stale epoch must never verify again.
	if err := a.Verify("s1", info.Epoch); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale epoch verified: %v", err)
	}
	// And a re-claim by a now fails while b is live.
	if _, err := a.Claim("s1"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale owner reclaimed a live lease: %v", err)
	}
}

func TestLeaseReleaseHandsOverImmediately(t *testing.T) {
	store := storage.NewMem(storage.MemConfig{})
	clk := &fakeClock{t: time.UnixMilli(1_000_000)}
	a := newLeases(t, store, "ra", clk)
	b := newLeases(t, store, "rb", clk)
	info, err := a.Claim("s1")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release("s1", info.Epoch); err != nil {
		t.Fatal(err)
	}
	// No clock advance: the release alone lets b in.
	got, err := b.Claim("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != "rb" {
		t.Fatalf("claim after release: %+v", got)
	}
	// Releasing a lease that moved on is a no-op.
	if err := a.Release("s1", info.Epoch); err != nil {
		t.Fatal(err)
	}
	if cur, ok, _ := b.load("s1"); !ok || cur.Owner != "rb" {
		t.Fatalf("stale release damaged the live lease: %+v ok=%v", cur, ok)
	}
}

func TestLeaseSelfRenewalAfterExpiryBumpsEpoch(t *testing.T) {
	store := storage.NewMem(storage.MemConfig{})
	clk := &fakeClock{t: time.UnixMilli(1_000_000)}
	a := newLeases(t, store, "ra", clk)
	info, err := a.Claim("s1")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second) // lease lapses while the session idles
	got, err := a.Claim("s1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != info.Epoch+1 {
		t.Fatalf("re-claim after lapse kept epoch %d", got.Epoch)
	}
}
