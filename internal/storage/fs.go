package storage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// FSConfig tunes the hardened filesystem backend.
type FSConfig struct {
	// Dir is the root directory (required; created if missing).
	Dir string
	// Generations is how many generations of each record to keep (default
	// 3). A larger K tolerates longer runs of failed writes before recovery
	// depth is exhausted, at the cost of K files per record.
	Generations int
	// Telemetry, when it carries a registry, registers the mfbo_storage_*
	// metrics (write/read/verify counters, rollback and quarantine counts,
	// fsync latency histogram).
	Telemetry *telemetry.Recorder
}

// FS is the hardened filesystem Store: each Put writes a checksummed,
// length-prefixed envelope to a temp file, fsyncs it, renames it over the
// new generation name and fsyncs the directory, so a snapshot survives both
// a crash mid-write and a power loss right after the rename; older
// generations allow rollback past a damaged one. Layout under Dir:
//
//	<id>.<kind>.g<%012d>.mfbo   record generations (envelope-framed)
//	<id>.ckpt.json              legacy checkpoint (read-only fallback)
//	<id>.session.json           legacy manifest (read-only fallback)
//	corrupt/                    quarantined generations, never deleted
//
// Operations on distinct records run concurrently (striped locks); two
// writers of the same record serialize.
type FS struct {
	dir  string
	keep int
	met  *metrics

	stripes [16]sync.Mutex

	mu   sync.Mutex
	gens map[string]uint64 // record key → next generation number
}

var (
	_ Store     = (*FS)(nil)
	_ Tearer    = (*FS)(nil)
	_ Corrupter = (*FS)(nil)
)

// NewFS builds the filesystem store rooted at cfg.Dir.
func NewFS(cfg FSConfig) (*FS, error) {
	if cfg.Dir == "" {
		return nil, errors.New("storage: FSConfig.Dir is required")
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 3
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: fs root: %w", err)
	}
	return &FS{
		dir:  cfg.Dir,
		keep: cfg.Generations,
		met:  newMetrics(cfg.Telemetry),
		gens: make(map[string]uint64),
	}, nil
}

// Dir returns the store's root directory.
func (s *FS) Dir() string { return s.dir }

func recordKey(kind Kind, id string) string { return id + "." + string(kind) }

func (s *FS) lock(key string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &s.stripes[h.Sum32()%uint32(len(s.stripes))]
}

func (s *FS) genPath(kind Kind, id string, n uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.g%012d.mfbo", recordKey(kind, id), n))
}

// legacyPath maps a record to its pre-storage-engine file name ("" when the
// kind had no legacy layout).
func (s *FS) legacyPath(kind Kind, id string) string {
	switch kind {
	case KindCheckpoint:
		return filepath.Join(s.dir, id+".ckpt.json")
	case KindManifest:
		return filepath.Join(s.dir, id+".session.json")
	}
	return ""
}

// generations lists the stored generation numbers of (kind, id), newest
// first.
func (s *FS) generations(kind Kind, id string) ([]uint64, error) {
	prefix := recordKey(kind, id) + ".g"
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".mfbo") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".mfbo")
		n, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		gens = append(gens, n)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens, nil
}

// nextGen reserves the next generation number for key (callers hold the
// record's stripe lock).
func (s *FS) nextGen(kind Kind, id string) (uint64, error) {
	key := recordKey(kind, id)
	s.mu.Lock()
	if n, ok := s.gens[key]; ok {
		s.gens[key] = n + 1
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Unlock()
	gens, err := s.generations(kind, id)
	if err != nil {
		return 0, err
	}
	var next uint64 = 1
	if len(gens) > 0 {
		next = gens[0] + 1
	}
	s.mu.Lock()
	s.gens[key] = next + 1
	s.mu.Unlock()
	return next, nil
}

// Put implements Store with the temp-file + fsync + rename + dir-fsync
// discipline, then prunes generations beyond the configured K.
func (s *FS) Put(kind Kind, id string, data []byte) error {
	key := recordKey(kind, id)
	l := s.lock(key)
	l.Lock()
	defer l.Unlock()
	n, err := s.nextGen(kind, id)
	if err != nil {
		s.met.writeErr()
		return fmt.Errorf("storage: fs put %s: %w", key, err)
	}
	if err := s.writeDurable(s.genPath(kind, id, n), encodeRecord(data)); err != nil {
		s.met.writeErr()
		return fmt.Errorf("storage: fs put %s: %w", key, err)
	}
	s.met.write(kind)
	s.prune(kind, id)
	return nil
}

// writeDurable lands env at path atomically and durably.
func (s *FS) writeDurable(path string, env []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".storage-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	start := time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	s.met.fsyncDur(time.Since(start))
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// The rename is metadata owned by the parent directory, which has its
	// own write-back cache; sync it or the entry can vanish on power loss.
	start = time.Now()
	if err := syncDir(dir); err != nil {
		return err
	}
	s.met.fsyncDur(time.Since(start))
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// prune deletes generations beyond the newest K. It runs only after a
// successful Put, so the newest kept generation always verifies — recovery
// depth can shrink but never reach zero. Failures are ignored: stale
// generations are garbage, not state.
func (s *FS) prune(kind Kind, id string) {
	gens, err := s.generations(kind, id)
	if err != nil || len(gens) <= s.keep {
		return
	}
	for _, n := range gens[s.keep:] {
		os.Remove(s.genPath(kind, id, n))
	}
}

// Get implements Store: newest verified generation wins; corrupt newer
// generations are quarantined and counted as a rollback when an older one
// (or a legacy file) recovers the record.
func (s *FS) Get(kind Kind, id string) ([]byte, error) {
	key := recordKey(kind, id)
	l := s.lock(key)
	l.Lock()
	defer l.Unlock()
	gens, err := s.generations(kind, id)
	if err != nil {
		s.met.readErr()
		return nil, fmt.Errorf("storage: fs get %s: %w", key, err)
	}
	skipped := 0
	for _, n := range gens {
		path := s.genPath(kind, id, n)
		env, err := os.ReadFile(path)
		if err != nil {
			// A transient I/O error must not quarantine a possibly-good
			// generation; surface it and let the caller retry.
			s.met.readErr()
			return nil, fmt.Errorf("storage: fs get %s: %w", key, err)
		}
		payload, err := decodeRecord(env)
		if err != nil {
			s.met.verifyFail()
			s.quarantine(kind, path)
			skipped++
			continue
		}
		if skipped > 0 {
			s.met.rollback(kind)
		}
		s.met.read(kind)
		return payload, nil
	}
	// No verified generation: fall back to the pre-engine layout (plain
	// JSON, no envelope) so existing checkpoint directories keep working.
	if legacy := s.legacyPath(kind, id); legacy != "" {
		data, err := os.ReadFile(legacy)
		if err == nil {
			if skipped > 0 {
				s.met.rollback(kind)
			}
			s.met.read(kind)
			return data, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			s.met.readErr()
			return nil, fmt.Errorf("storage: fs get %s: %w", key, err)
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
}

// quarantine moves a corrupt generation into corrupt/ (never deleting it);
// on any failure the file is left in place — a corrupt record must not
// become less inspectable because quarantine failed.
func (s *FS) quarantine(kind Kind, path string) {
	qdir := filepath.Join(s.dir, "corrupt")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dest := filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := os.Rename(path, dest); err != nil {
		return
	}
	s.met.quarantine(kind)
}

// Delete implements Store (quarantined copies are intentionally kept).
func (s *FS) Delete(kind Kind, id string) error {
	key := recordKey(kind, id)
	l := s.lock(key)
	l.Lock()
	defer l.Unlock()
	gens, err := s.generations(kind, id)
	if err != nil {
		return fmt.Errorf("storage: fs delete %s: %w", key, err)
	}
	var errs []error
	for _, n := range gens {
		if err := os.Remove(s.genPath(kind, id, n)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	if legacy := s.legacyPath(kind, id); legacy != "" {
		if err := os.Remove(legacy); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	s.mu.Lock()
	delete(s.gens, key)
	s.mu.Unlock()
	return errors.Join(errs...)
}

// List implements Store, including records only present in the legacy
// layout.
func (s *FS) List(kind Kind) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: fs list %s: %w", kind, err)
	}
	suffix := "." + string(kind) + ".g"
	var legacySuffix string
	switch kind {
	case KindCheckpoint:
		legacySuffix = ".ckpt.json"
	case KindManifest:
		legacySuffix = ".session.json"
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if i := strings.Index(name, suffix); i > 0 && strings.HasSuffix(name, ".mfbo") {
			seen[name[:i]] = true
			continue
		}
		if legacySuffix != "" && strings.HasSuffix(name, legacySuffix) && len(name) > len(legacySuffix) {
			seen[strings.TrimSuffix(name, legacySuffix)] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Probe implements Store with an actual write probe, so a full disk or
// permission regression is detected before it eats a record.
func (s *FS) Probe() error {
	f, err := os.CreateTemp(s.dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("storage: fs probe: %w", err)
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	rerr := os.Remove(name)
	return errors.Join(werr, cerr, rerr)
}

// Close implements Store (the filesystem store holds no resources).
func (s *FS) Close() error { return nil }

// PutTorn implements Tearer: the envelope is cut at offset and written
// straight to the final generation name with no temp file, no fsync and no
// rename barrier — the on-disk state a power loss mid-write leaves behind.
func (s *FS) PutTorn(kind Kind, id string, data []byte, offset int) error {
	key := recordKey(kind, id)
	l := s.lock(key)
	l.Lock()
	defer l.Unlock()
	env := encodeRecord(data)
	if offset < 0 {
		offset = 0
	}
	if offset > len(env) {
		offset = len(env)
	}
	n, err := s.nextGen(kind, id)
	if err != nil {
		return err
	}
	return os.WriteFile(s.genPath(kind, id, n), env[:offset], 0o644)
}

// CorruptHead implements Corrupter: the newest generation is truncated in
// place to keep bytes — what a lying fsync leaves after power loss.
func (s *FS) CorruptHead(kind Kind, id string, keep int) error {
	l := s.lock(recordKey(kind, id))
	l.Lock()
	defer l.Unlock()
	gens, err := s.generations(kind, id)
	if err != nil || len(gens) == 0 {
		return err
	}
	if keep < 0 {
		keep = 0
	}
	return os.Truncate(s.genPath(kind, id, gens[0]), int64(keep))
}
