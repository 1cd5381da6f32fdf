// Sharding glue: what turns a single-node server into one replica of a
// horizontally sharded deployment. Setting Config.ReplicaID (plus a durable
// store shared by every replica) switches the registry to lease-guarded
// ownership:
//
//   - a session is claimed (internal/shard.Leases) before it is built or
//     restored, so exactly one replica has it resident at a time;
//   - a background renewer keeps the leases of resident sessions alive and
//     drops — WITHOUT persisting — any session whose lease moved to another
//     replica (our state is stale; a goodbye write would clobber the new
//     owner's newer checkpoints);
//   - every checkpoint Put goes through fencedStore, which re-verifies the
//     lease immediately before writing, so acks keep their meaning: an
//     observation is acknowledged only if its checkpoint landed under a
//     live, owned lease;
//   - requests for sessions owned elsewhere answer wrong_owner (HTTP 421)
//     with the owner's identity and the remaining lease TTL as routing
//     hints for the gateway.
package server

import (
	"errors"
	"time"

	"repro/internal/shard"
	"repro/internal/storage"
)

// sharded reports whether this server runs as one replica of a sharded
// deployment (Config.ReplicaID set).
func (s *Server) sharded() bool { return s.leases != nil }

// claimOwnership acquires the session's ownership lease (no-op epoch 0 when
// unsharded). The returned epoch fences every subsequent write of the
// session through fencedStore.
func (s *Server) claimOwnership(id string) (uint64, error) {
	if !s.sharded() {
		return 0, nil
	}
	info, err := s.leases.Claim(id)
	if err != nil {
		return 0, err
	}
	return info.Epoch, nil
}

// fencedStore guards a sharded session's writes with its ownership lease:
// every Put re-verifies owner + epoch + expiry margin immediately before
// writing, so a paused or partitioned ex-owner refuses the write instead of
// clobbering the replica that took the session over. Reads and deletes pass
// through — restores happen under a freshly claimed lease.
type fencedStore struct {
	storage.Store
	leases *shard.Leases
	id     string
	epoch  uint64
}

func (f *fencedStore) Put(kind storage.Kind, id string, data []byte) error {
	if err := f.leases.Verify(f.id, f.epoch); err != nil {
		return err
	}
	return f.Store.Put(kind, id, data)
}

// sessionStore returns the store a session persists through: the shared
// engine directly when unsharded, lease-fenced when sharded.
func (s *Server) sessionStore(id string, epoch uint64) storage.Store {
	if !s.sharded() {
		return s.store
	}
	return &fencedStore{Store: s.store, leases: s.leases, id: id, epoch: epoch}
}

// renewer keeps the ownership leases of resident sessions alive, ticking a
// few times per TTL so an ordinarily scheduled replica never lets a lease
// lapse while it still serves the session.
func (s *Server) renewer() {
	defer close(s.renewDone)
	tick := time.NewTicker(s.leases.TTL() / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.renewStop:
			return
		case <-tick.C:
			s.renewOwned()
		}
	}
}

func (s *Server) renewOwned() {
	type owned struct {
		id string
		e  *entry
	}
	s.mu.RLock()
	list := make([]owned, 0, len(s.sessions))
	for id, e := range s.sessions {
		list = append(list, owned{id, e})
	}
	s.mu.RUnlock()
	for _, o := range list {
		_, err := s.leases.Renew(o.id, o.e.epoch)
		if errors.Is(err, shard.ErrNotOwner) {
			s.dropNotOwned(o.id, o.e)
		} else if err != nil {
			// Store hiccup: leave the session resident; the fence on its next
			// checkpoint write is what actually protects correctness.
			s.logf("server: renew lease %s: %v", o.id, err)
		}
	}
}

// dropNotOwned evicts a session whose lease moved to another replica. No
// persistence pass: the new owner restored from the checkpoints this replica
// wrote while it still held the lease, and anything newer in our memory was
// never acknowledged.
func (s *Server) dropNotOwned(id string, e *entry) {
	s.mu.Lock()
	if s.sessions[id] == e {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	s.logf("server: session %s moved to another replica; dropped without persisting", id)
}

// releaseOwned voluntarily surrenders one session's lease (graceful
// shutdown, after the final persistence pass) so the next replica claims it
// immediately instead of waiting out the TTL.
func (s *Server) releaseOwned(id string, e *entry) {
	if !s.sharded() {
		return
	}
	if err := s.leases.Release(id, e.epoch); err != nil {
		s.logf("server: release lease %s: %v", id, err)
	}
}
