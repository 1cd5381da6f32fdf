// Package shard is the placement layer of the horizontally sharded service
// tier: a seeded consistent-hash ring decides which replica *should* serve a
// session, and storage-backed ownership leases guarantee that exactly one
// replica *does* serve it at a time — even while replicas die, restart, and
// the ring view changes under load.
//
// The two mechanisms are deliberately independent. The ring is a routing
// hint: deterministic, stateless, recomputed by every gateway from its
// healthy-replica view. The lease is the safety interlock: persisted through
// the same crash-consistent storage engine as the checkpoints themselves
// (internal/storage), claimed on first touch, renewed while serving, fenced
// on every checkpoint write, and expiring on its own when the owner dies —
// which is what lets ownership move to a new replica without losing a single
// acknowledged observation (the checkpoint-is-ground-truth invariant of
// DESIGN.md §11 makes the handoff a restore, not a migration).
package shard

import (
	"fmt"
	"sort"
	"sync"
)

// RingConfig tunes a Ring. Zero values select defaults.
type RingConfig struct {
	// VNodes is the number of virtual nodes per replica (default 64). More
	// vnodes smooth the load split at the cost of a larger table.
	VNodes int
	// Seed perturbs the hash so placement is deterministic per deployment
	// but not exploitable/predictable across unrelated ones. Every gateway
	// and replica of one deployment must share it.
	Seed uint64
}

func (c *RingConfig) defaults() {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
}

// Ring is a consistent-hash ring over replica names with virtual nodes.
// Placement is a pure function of (seed, vnodes, replica set, key): replicas
// may be added in any order, on any machine, and every holder of the same
// configuration computes the identical owner for every session — the
// property the gateway relies on to route without coordination.
type Ring struct {
	cfg RingConfig

	mu       sync.RWMutex
	points   []ringPoint
	replicas []string // sorted
}

type ringPoint struct {
	hash    uint64
	replica string
}

// NewRing builds an empty ring; call SetReplicas to populate it.
func NewRing(cfg RingConfig) *Ring {
	cfg.defaults()
	return &Ring{cfg: cfg}
}

// fnv64a with the ring seed folded into the offset basis, so two deployments
// with different seeds place the same session differently. The raw FNV value
// is passed through a 64-bit avalanche finalizer: without it, keys differing
// only in their trailing bytes (sequential session IDs like "s-00017") stay
// within ~prime64·255 ≈ 2⁴⁸ of each other — one sliver of the ring — and all
// hash to the same replica.
func (r *Ring) hash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	seed := r.cfg.Seed
	for i := 0; i < 8; i++ {
		h ^= seed & 0xff
		h *= prime64
		seed >>= 8
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// SetReplicas rebuilds the ring over the given replica set. The input is
// copied, deduplicated and sorted, so the resulting placement is independent
// of call order and duplicates.
func (r *Ring) SetReplicas(replicas []string) {
	seen := make(map[string]bool, len(replicas))
	uniq := make([]string, 0, len(replicas))
	for _, rep := range replicas {
		if rep == "" || seen[rep] {
			continue
		}
		seen[rep] = true
		uniq = append(uniq, rep)
	}
	sort.Strings(uniq)
	points := make([]ringPoint, 0, len(uniq)*r.cfg.VNodes)
	for _, rep := range uniq {
		for v := 0; v < r.cfg.VNodes; v++ {
			points = append(points, ringPoint{r.hash(fmt.Sprintf("%s#%d", rep, v)), rep})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].replica < points[j].replica // total order under collisions
	})
	r.mu.Lock()
	r.points = points
	r.replicas = uniq
	r.mu.Unlock()
}

// Replicas returns the current replica set, sorted.
func (r *Ring) Replicas() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.replicas...)
}

// Size returns the number of replicas on the ring.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.replicas)
}

// Owners returns up to n distinct replicas in ring order starting at the
// key's position — the preference list for failover routing: Owners(k, n)[0]
// is the primary placement, the rest are the successors a gateway tries when
// the primary is down.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	h := r.hash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}
