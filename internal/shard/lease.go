// Session-ownership leases: the interlock that makes "exactly one replica
// serves a session at a time" true even though the ring view of different
// gateways can momentarily disagree.
//
// # State machine
//
//	unowned ──Claim──▶ owned(replica, epoch) ──Renew──▶ owned (expiry pushed)
//	   ▲                      │         │
//	   │◀──────Release────────┘         │ owner dies / stops renewing
//	   └────────────── expiry ──────────┘  (next Claim bumps the epoch)
//
// A lease is a record in the shared storage engine: {owner, epoch, expiry}.
// Claim writes a fresh record only over an absent or expired one and then
// reads its own write back — the storage engine serializes Puts, so of two
// racing claimants the one whose record survives the read-back owns the
// session; the loser sees the winner's record and backs off. The epoch
// increments on every ownership change and fences stale writers: a replica
// must Verify (re-read) its lease immediately before persisting a checkpoint,
// so a paused or partitioned ex-owner that wakes up after its lease expired
// finds a younger epoch and refuses the write instead of clobbering the new
// owner's state.
//
// The guarantee this gives the service tier: an observation is acknowledged
// only after its checkpoint Put succeeded, and a checkpoint Put succeeds only
// under a live, verified lease — so the replica that next claims the session
// restores a checkpoint containing every acknowledged observation. Lease
// expiry costs availability (a killed replica's sessions stall until the TTL
// lapses), never consistency.
//
// Clock assumption: replicas sharing a store must have clocks synchronized
// well within the lease TTL (the usual lease-system requirement). The
// default TTL of seconds tolerates ordinary NTP-grade skew.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/storage"
)

// ErrNotOwner reports that the caller does not (or no longer does) hold the
// session's ownership lease. Classify with errors.Is; errors.As against
// *WrongOwnerError recovers the actual owner for routing hints.
var ErrNotOwner = errors.New("shard: not the session owner")

// WrongOwnerError carries who does own the session and until when — the
// server turns it into the wire-level wrong_owner reply the gateway uses to
// re-route, with the remaining lease time as the retry hint.
type WrongOwnerError struct {
	SessionID string
	Owner     string
	Epoch     uint64
	Expires   time.Time
}

func (e *WrongOwnerError) Error() string {
	return fmt.Sprintf("shard: session %s owned by replica %s (epoch %d)", e.SessionID, e.Owner, e.Epoch)
}

func (e *WrongOwnerError) Unwrap() error { return ErrNotOwner }

// OwnerInfo is the decoded ownership record of one session.
type OwnerInfo struct {
	Owner string `json:"owner"`
	Epoch uint64 `json:"epoch"`
	// ExpiresUnixMs is the wall-clock lease expiry.
	ExpiresUnixMs int64 `json:"expires_unix_ms"`
}

// Expires returns the expiry as a time.Time.
func (o OwnerInfo) Expires() time.Time { return time.UnixMilli(o.ExpiresUnixMs) }

// LeaseConfig tunes a lease manager.
type LeaseConfig struct {
	// Store is the shared storage engine ownership records live in
	// (required; must be the same store every replica of the deployment
	// persists its sessions through).
	Store storage.Store
	// Replica is this replica's identity (required).
	Replica string
	// TTL is how long a claim or renewal holds without further renewals
	// (default 5s). Shorter TTLs migrate sessions off dead replicas faster
	// at the cost of more renewal writes.
	TTL time.Duration
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
}

func (c *LeaseConfig) defaults() error {
	if c.Store == nil {
		return errors.New("shard: LeaseConfig.Store is required")
	}
	if c.Replica == "" {
		return errors.New("shard: LeaseConfig.Replica is required")
	}
	if c.TTL <= 0 {
		c.TTL = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// Leases manages this replica's session-ownership leases over the shared
// store. It is stateless (safe for concurrent use): every operation reads
// and writes the storage record, which is the single source of truth.
type Leases struct {
	cfg LeaseConfig
}

// NewLeases builds a lease manager.
func NewLeases(cfg LeaseConfig) (*Leases, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Leases{cfg: cfg}, nil
}

// TTL returns the configured lease duration.
func (l *Leases) TTL() time.Duration { return l.cfg.TTL }

// Replica returns the identity the manager claims under.
func (l *Leases) Replica() string { return l.cfg.Replica }

func (l *Leases) load(sessionID string) (OwnerInfo, bool, error) {
	data, err := l.cfg.Store.Get(storage.KindOwner, sessionID)
	switch {
	case errors.Is(err, storage.ErrNotFound):
		return OwnerInfo{}, false, nil
	case err != nil:
		return OwnerInfo{}, false, fmt.Errorf("shard: read lease %s: %w", sessionID, err)
	}
	var info OwnerInfo
	if err := json.Unmarshal(data, &info); err != nil {
		// A corrupt lease record is treated as absent: the storage engine
		// already quarantined anything unverifiable, and ownership is
		// reconstructible (the next claimant simply starts a fresh epoch —
		// checkpoints, not leases, are ground truth).
		return OwnerInfo{}, false, nil
	}
	return info, true, nil
}

func (l *Leases) store(sessionID string, info OwnerInfo) error {
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	if err := l.cfg.Store.Put(storage.KindOwner, sessionID, data); err != nil {
		return fmt.Errorf("shard: write lease %s: %w", sessionID, err)
	}
	return nil
}

// Claim acquires (or re-acquires/renews) ownership of the session for this
// replica. A live lease held by another replica fails with *WrongOwnerError;
// an absent or expired lease is claimed under a bumped epoch, and the write
// is read back to settle races through the store's Put serialization.
func (l *Leases) Claim(sessionID string) (OwnerInfo, error) {
	now := l.cfg.Now()
	cur, ok, err := l.load(sessionID)
	if err != nil {
		return OwnerInfo{}, err
	}
	if ok && cur.Owner != l.cfg.Replica && now.Before(cur.Expires()) {
		return OwnerInfo{}, &WrongOwnerError{SessionID: sessionID, Owner: cur.Owner, Epoch: cur.Epoch, Expires: cur.Expires()}
	}
	next := OwnerInfo{
		Owner:         l.cfg.Replica,
		Epoch:         cur.Epoch + 1,
		ExpiresUnixMs: now.Add(l.cfg.TTL).UnixMilli(),
	}
	if ok && cur.Owner == l.cfg.Replica && now.Before(cur.Expires()) {
		// Renewal of our own live lease keeps the epoch: nothing changed
		// hands, and stable epochs keep the fence checks of in-flight
		// checkpoint writes valid.
		next.Epoch = cur.Epoch
	}
	if err := l.store(sessionID, next); err != nil {
		return OwnerInfo{}, err
	}
	// Read-back: of two racing claimants the store kept one record as the
	// newest generation; the one that reads its own (owner, epoch) back won.
	got, ok, err := l.load(sessionID)
	if err != nil {
		return OwnerInfo{}, err
	}
	if !ok || got.Owner != l.cfg.Replica || got.Epoch != next.Epoch {
		return OwnerInfo{}, &WrongOwnerError{SessionID: sessionID, Owner: got.Owner, Epoch: got.Epoch, Expires: got.Expires()}
	}
	return got, nil
}

// Renew extends a lease this replica holds under the given epoch. A lease
// that moved on (different owner or epoch) fails with ErrNotOwner — the
// caller must drop the session without persisting it.
func (l *Leases) Renew(sessionID string, epoch uint64) (OwnerInfo, error) {
	now := l.cfg.Now()
	cur, ok, err := l.load(sessionID)
	if err != nil {
		return OwnerInfo{}, err
	}
	if !ok || cur.Owner != l.cfg.Replica || cur.Epoch != epoch {
		return OwnerInfo{}, &WrongOwnerError{SessionID: sessionID, Owner: cur.Owner, Epoch: cur.Epoch, Expires: cur.Expires()}
	}
	if !now.Before(cur.Expires()) {
		// Expired but unclaimed: safe to re-claim, but under a new epoch —
		// another replica may have served (and released) it meanwhile.
		return l.Claim(sessionID)
	}
	cur.ExpiresUnixMs = now.Add(l.cfg.TTL).UnixMilli()
	if err := l.store(sessionID, cur); err != nil {
		return OwnerInfo{}, err
	}
	return cur, nil
}

// Verify re-reads the lease and confirms this replica still owns the session
// under the given epoch — the fence called immediately before every
// checkpoint write. It demands TTL/4 of slack before expiry, not mere
// liveness: a successor can only claim after expiry, so a writer that passed
// the fence must stall longer than that margin between check and write
// before its Put could land on a taken-over session. ErrNotOwner (possibly
// as *WrongOwnerError) means the lease moved: the write must not happen.
func (l *Leases) Verify(sessionID string, epoch uint64) error {
	cur, ok, err := l.load(sessionID)
	if err != nil {
		return err
	}
	if !ok || cur.Owner != l.cfg.Replica || cur.Epoch != epoch {
		return &WrongOwnerError{SessionID: sessionID, Owner: cur.Owner, Epoch: cur.Epoch, Expires: cur.Expires()}
	}
	if !l.cfg.Now().Add(l.cfg.TTL / 4).Before(cur.Expires()) {
		return &WrongOwnerError{SessionID: sessionID, Owner: cur.Owner, Epoch: cur.Epoch, Expires: cur.Expires()}
	}
	return nil
}

// Release voluntarily surrenders a lease held under the given epoch by
// writing it back expired, so a successor claims it immediately instead of
// waiting out the TTL — the graceful-shutdown path. Releasing a lease that
// already moved on is a no-op.
func (l *Leases) Release(sessionID string, epoch uint64) error {
	cur, ok, err := l.load(sessionID)
	if err != nil {
		return err
	}
	if !ok || cur.Owner != l.cfg.Replica || cur.Epoch != epoch {
		return nil
	}
	cur.ExpiresUnixMs = 0
	return l.store(sessionID, cur)
}
