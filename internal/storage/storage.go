// Package storage is the pluggable durable-state engine of the optimization
// service: everything the daemon must not lose — session manifests,
// optimizer checkpoints, telemetry rings — goes through the Store interface
// instead of ad-hoc file I/O, so backends can be swapped (hardened
// filesystem, in-memory for tests, future KV/SQL) without touching the
// layers above.
//
// # Crash consistency
//
// The contract every backend honors: a Put that returns nil has made the
// record durable (it survives an immediate process kill or power loss), and
// a Put that returns an error has left every previously-durable generation
// of the record intact. Records are framed by a length-prefixed, CRC32C-
// checksummed envelope (see record.go), so torn writes, truncation and bit
// rot are detected on read rather than silently deserialized. Backends keep
// the last K generations of each record: when the newest generation fails
// verification, Get quarantines it and rolls back to the newest generation
// that verifies — a torn head costs one iteration of progress, never the
// run. Corrupt data is preserved (moved aside, not deleted) for forensics.
//
// # Fault injection
//
// The Chaos decorator wraps any backend and injects storage faults (write
// and read errors, torn writes truncated at a byte offset, lying fsyncs,
// latency spikes) from a seeded RNG, mirroring the fault-injection
// discipline of internal/robust.Chaos. cmd/mfbo-chaos and the torture tests
// use it to prove the recovery machinery under fire.
package storage

import "errors"

// Kind names a class of records. Backends may lay each kind out
// differently; the interface treats them as separate namespaces.
type Kind string

const (
	// KindCheckpoint is an optimizer snapshot (core.Checkpoint JSON) —
	// ground truth of a session, written after every ingested observation.
	KindCheckpoint Kind = "ckpt"
	// KindManifest is a session manifest (the creation request), written
	// once per create/resume so a restarted server can rebuild configs.
	KindManifest Kind = "manifest"
	// KindTelemetry is a session's buffered telemetry ring, persisted
	// best-effort at eviction/shutdown so introspection survives restarts.
	KindTelemetry Kind = "ring"
	// KindOwner is a session-ownership lease (internal/shard): which replica
	// of a sharded deployment currently serves the session, under which
	// epoch, and until when — the fence that keeps exactly one replica
	// writing a session's checkpoints at a time.
	KindOwner Kind = "owner"
)

// kinds lists every known kind (for Delete-everything sweeps and tests).
var kinds = []Kind{KindCheckpoint, KindManifest, KindTelemetry, KindOwner}

// Kinds returns every record kind the engine knows about.
func Kinds() []Kind { return append([]Kind(nil), kinds...) }

// Typed sentinel errors; classify with errors.Is.
var (
	// ErrNotFound reports that no recoverable record exists under the key.
	// Callers treat it as "start fresh": a record whose every generation
	// failed verification also surfaces as ErrNotFound (after quarantining
	// the corrupt data), because recovering from nothing is the only safe
	// automatic response.
	ErrNotFound = errors.New("storage: record not found")

	// ErrCorrupt reports that stored bytes failed envelope verification
	// (bad magic, truncated payload, checksum mismatch). Get handles it
	// internally via rollback; it escapes only from direct codec use.
	ErrCorrupt = errors.New("storage: record corrupt")

	// ErrInjected is returned by chaos-injected storage faults.
	ErrInjected = errors.New("storage: chaos-injected fault")

	// ErrCrashed rejects every operation on a Chaos store after Crash():
	// the simulated process is dead, and a dead process issues no I/O.
	ErrCrashed = errors.New("storage: store crashed (chaos)")
)

// Store is the pluggable durability engine. Implementations must be safe
// for concurrent use; operations on distinct (kind, id) pairs must not
// block each other on slow I/O.
type Store interface {
	// Put durably persists data as the newest generation of (kind, id).
	// On nil return the record survives an immediate crash; on error every
	// previously-durable generation is still intact.
	Put(kind Kind, id string, data []byte) error
	// Get returns the newest generation of (kind, id) that passes
	// verification, quarantining corrupt newer generations along the way.
	// ErrNotFound when nothing recoverable exists.
	Get(kind Kind, id string) ([]byte, error)
	// Delete removes every generation of (kind, id). Deleting a missing
	// record is not an error.
	Delete(kind Kind, id string) error
	// List returns the IDs that have at least one stored generation of
	// kind, in unspecified order.
	List(kind Kind) ([]string, error)
	// Probe verifies the backend can currently accept writes (health
	// checks; e.g. a filesystem store creates and removes a scratch file).
	Probe() error
	// Close releases backend resources. The store must not be used after.
	Close() error
}

// Tearer is implemented by backends that can simulate a torn write: the
// encoded record is persisted truncated at a byte offset, exactly as if the
// process died mid-write with no rename barrier. The chaos decorator uses
// it; production code never should.
type Tearer interface {
	// PutTorn writes the record's envelope cut at offset bytes as the
	// newest generation, bypassing the atomic temp+rename path, and returns
	// the error the interrupted writer would have seen.
	PutTorn(kind Kind, id string, data []byte, offset int) error
}

// Corrupter is implemented by backends that can corrupt the newest stored
// generation in place (truncate it to keep bytes) — the "power loss after a
// lying fsync" simulation hook.
type Corrupter interface {
	CorruptHead(kind Kind, id string, keep int) error
}
