package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ChaosConfig is the storage fault-injection schedule. Rates are
// probabilities in [0, 1], rolled per operation in order
// write-error → torn-write → fsync-lie → latency (writes) and
// read-error → latency (reads); at most one fault fires per operation.
type ChaosConfig struct {
	// Seed makes the injection sequence deterministic (default 1).
	Seed int64
	// WriteErrRate makes Put fail with ErrInjected before touching the
	// backend (EIO on write).
	WriteErrRate float64
	// TornWriteRate persists the record truncated at a random byte offset
	// via the backend's Tearer hook and returns ErrInjected — the state a
	// crash mid-write leaves behind. Ignored when the backend cannot tear.
	TornWriteRate float64
	// FsyncLieRate makes Put report success while the write is actually
	// volatile: a later Crash() truncates the lied-about head in place (via
	// the backend's Corrupter hook), as power loss after a lying fsync
	// would. This fault genuinely breaks the "nil Put ⟹ durable" contract —
	// that is the point; use it only to measure blast radius, not in
	// tortures asserting zero loss of acked state.
	FsyncLieRate float64
	// ReadErrRate makes Get fail with ErrInjected (EIO on read).
	ReadErrRate float64
	// LatencyRate stalls the operation for Latency before proceeding.
	LatencyRate float64
	// Latency is the stall duration of a latency fault (default 5 ms).
	Latency time.Duration
}

// ChaosCounts tallies injected storage faults.
type ChaosCounts struct {
	WriteErrs, TornWrites, FsyncLies, ReadErrs, Latencies int
}

// Chaos decorates any Store with seeded fault injection. Crash() simulates
// the process dying: every fsync-lied write is lost (head truncated in the
// backend) and all further operations fail with ErrCrashed. Safe for
// concurrent use.
type Chaos struct {
	inner Store
	cfg   ChaosConfig

	// fence is held shared by every operation for its whole duration and
	// exclusively by Crash, so no write of a crashed decorator reaches the
	// backend after Crash returns.
	fence sync.RWMutex

	mu       sync.Mutex
	rng      *rand.Rand
	counts   ChaosCounts
	crashed  bool
	volatile map[string][2]string // record key → (kind, id) of fsync-lied head
	torn     map[string]bool      // record key → newest generation is torn
}

var _ Store = (*Chaos)(nil)

// NewChaos wraps inner with fault injection.
func NewChaos(inner Store, cfg ChaosConfig) *Chaos {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 5 * time.Millisecond
	}
	return &Chaos{
		inner:    inner,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		volatile: make(map[string][2]string),
		torn:     make(map[string]bool),
	}
}

// Counts returns the fault tallies so far.
func (c *Chaos) Counts() ChaosCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Crash simulates the wrapped process dying mid-flight: operations already
// in flight finish first (a write reached the disk before the kill or never
// does), fsync-lied writes are truncated in the backend (they were never
// durable) and every subsequent operation on this decorator fails with
// ErrCrashed. The underlying backend stays valid — a "restarted" process
// opens a fresh store over the same state.
func (c *Chaos) Crash() {
	c.fence.Lock()
	defer c.fence.Unlock()
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return
	}
	c.crashed = true
	lost := c.volatile
	c.volatile = map[string][2]string{}
	c.mu.Unlock()
	cor, ok := c.inner.(Corrupter)
	if !ok {
		return
	}
	for key, rec := range lost {
		// Keep half the header: unambiguously torn, forensically non-empty.
		cor.CorruptHead(Kind(rec[0]), rec[1], headerSize/2)
		c.mu.Lock()
		c.torn[key] = true
		c.mu.Unlock()
	}
}

// TornHead reports whether the newest generation of (kind, id) was left
// torn by injection (torn write, or fsync lie realized by Crash) with no
// successful Put after it. Torture tests use it to predict the exact
// rollback count of the next recovery.
func (c *Chaos) TornHead(kind Kind, id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.torn[recordKey(kind, id)]
}

type storageFault int

const (
	faultNone storageFault = iota
	faultErr
	faultTorn
	faultLie
	faultLatency
)

// rollWrite draws the fault (if any) for one Put.
func (c *Chaos) rollWrite() storageFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.rng.Float64()
	switch {
	case u < c.cfg.WriteErrRate:
		c.counts.WriteErrs++
		return faultErr
	case u < c.cfg.WriteErrRate+c.cfg.TornWriteRate:
		c.counts.TornWrites++
		return faultTorn
	case u < c.cfg.WriteErrRate+c.cfg.TornWriteRate+c.cfg.FsyncLieRate:
		c.counts.FsyncLies++
		return faultLie
	case u < c.cfg.WriteErrRate+c.cfg.TornWriteRate+c.cfg.FsyncLieRate+c.cfg.LatencyRate:
		c.counts.Latencies++
		return faultLatency
	}
	return faultNone
}

// rollRead draws the fault (if any) for one Get.
func (c *Chaos) rollRead() storageFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.rng.Float64()
	switch {
	case u < c.cfg.ReadErrRate:
		c.counts.ReadErrs++
		return faultErr
	case u < c.cfg.ReadErrRate+c.cfg.LatencyRate:
		c.counts.Latencies++
		return faultLatency
	}
	return faultNone
}

func (c *Chaos) dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Put implements Store with write-fault injection.
func (c *Chaos) Put(kind Kind, id string, data []byte) error {
	c.fence.RLock()
	defer c.fence.RUnlock()
	if c.dead() {
		return ErrCrashed
	}
	key := recordKey(kind, id)
	switch c.rollWrite() {
	case faultErr:
		return fmt.Errorf("%w: write error on %s", ErrInjected, key)
	case faultTorn:
		if t, ok := c.inner.(Tearer); ok {
			offset := c.tornOffset(len(data))
			if err := t.PutTorn(kind, id, data, offset); err != nil {
				return fmt.Errorf("storage: chaos torn write on %s: %w", key, err)
			}
			c.mu.Lock()
			c.torn[key] = true
			delete(c.volatile, key)
			c.mu.Unlock()
			return fmt.Errorf("%w: torn write on %s (cut at %d)", ErrInjected, key, offset)
		}
		// Backend can't tear; degrade to a plain write error.
		return fmt.Errorf("%w: write error on %s", ErrInjected, key)
	case faultLie:
		if err := c.inner.Put(kind, id, data); err != nil {
			return err
		}
		c.mu.Lock()
		c.volatile[key] = [2]string{string(kind), id}
		delete(c.torn, key)
		c.mu.Unlock()
		return nil
	case faultLatency:
		time.Sleep(c.cfg.Latency)
	}
	if err := c.inner.Put(kind, id, data); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.torn, key)
	delete(c.volatile, key)
	c.mu.Unlock()
	return nil
}

// tornOffset picks where the torn write cuts: anywhere inside the envelope,
// biased nowhere in particular.
func (c *Chaos) tornOffset(payloadLen int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(headerSize + payloadLen)
}

// Get implements Store with read-fault injection.
func (c *Chaos) Get(kind Kind, id string) ([]byte, error) {
	c.fence.RLock()
	defer c.fence.RUnlock()
	if c.dead() {
		return nil, ErrCrashed
	}
	switch c.rollRead() {
	case faultErr:
		return nil, fmt.Errorf("%w: read error on %s", ErrInjected, recordKey(kind, id))
	case faultLatency:
		time.Sleep(c.cfg.Latency)
	}
	return c.inner.Get(kind, id)
}

// Delete implements Store (no injection: deletes are control-plane).
func (c *Chaos) Delete(kind Kind, id string) error {
	c.fence.RLock()
	defer c.fence.RUnlock()
	if c.dead() {
		return ErrCrashed
	}
	return c.inner.Delete(kind, id)
}

// List implements Store.
func (c *Chaos) List(kind Kind) ([]string, error) {
	c.fence.RLock()
	defer c.fence.RUnlock()
	if c.dead() {
		return nil, ErrCrashed
	}
	return c.inner.List(kind)
}

// Probe implements Store.
func (c *Chaos) Probe() error {
	c.fence.RLock()
	defer c.fence.RUnlock()
	if c.dead() {
		return ErrCrashed
	}
	return c.inner.Probe()
}

// Close implements Store (closing does not close the wrapped backend: the
// torture harness reuses it across simulated process lifetimes).
func (c *Chaos) Close() error { return nil }
