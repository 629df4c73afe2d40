package replica

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

// Store makes a Catalog durable: every committed mutation (shard op) is
// appended to a write-ahead log via the catalog's mutation hook, and
// Compact freezes the state into a per-shard snapshot generation
// (shards.<gen>/, see snapshot.go) before truncating the WAL. Open
// recovers by loading the generation the journal's snapshot marker names
// and replaying the WAL records on top — the same journal-before-ack
// durability contract internal/core uses for site state.
type Store struct {
	c   *Catalog
	dir string

	// mu guards the journal (whose methods are not concurrency-safe) and
	// the generation counter. Lock order: shard locks / collMu first,
	// then mu — append runs under the mutating shard's lock, and Compact
	// takes every shard lock before mu.
	mu  sync.Mutex
	j   *journal.Journal
	gen uint64
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	// Registry receives the journal's gdmp_journal_* metrics.
	Registry *obs.Registry
	// NoSync skips the per-append fsync (benchmarks only).
	NoSync bool
}

const storeWALDir = "wal"

// compactRecords is the WAL record count past which MaybeCompact compacts.
const compactRecords = 8192

func shardsDirName(gen uint64) string { return fmt.Sprintf("shards.%d", gen) }

// OpenStore opens (creating if needed) the journaled store in dir and
// recovers the catalog from it: the per-shard snapshot generation named
// by the journal marker, plus a replay of every WAL record after it.
// On return the catalog's mutation hook is installed; the caller must not
// replace it.
func OpenStore(dir string, c *Catalog, opts StoreOptions) (*Store, error) {
	j, rec, err := journal.Open(filepath.Join(dir, storeWALDir), journal.Options{
		NoSync:   opts.NoSync,
		Registry: opts.Registry,
	})
	if err != nil {
		return nil, err
	}
	st := &Store{c: c, dir: dir, j: j}
	if rec.Snapshot != nil {
		gen, err := parseShardsMarker(rec.Snapshot)
		if err != nil {
			j.Close()
			return nil, err
		}
		if err := c.LoadShards(filepath.Join(dir, shardsDirName(gen))); err != nil {
			j.Close()
			return nil, fmt.Errorf("replica: load shard snapshots gen %d: %w", gen, err)
		}
		st.gen = gen
	}
	for i, p := range rec.Records {
		m, err := decodeMutation(p)
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("replica: store WAL record %d: %w", i, err)
		}
		st.replay(m)
	}
	st.sweepStale()
	c.OnMutate(st.append)
	return st, nil
}

func parseShardsMarker(p []byte) (uint64, error) {
	s := strings.TrimSpace(string(p))
	rest, ok := strings.CutPrefix(s, "rls-shards ")
	if !ok {
		return 0, fmt.Errorf("replica: bad store snapshot marker %q", s)
	}
	return strconv.ParseUint(rest, 10, 64)
}

// sweepStale removes shard-snapshot generations other than the live one
// (left behind by a crash inside Compact, before or after the marker
// moved).
func (s *Store) sweepStale() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	live := shardsDirName(s.gen)
	for _, e := range ents {
		name := e.Name()
		if name == live || !strings.HasPrefix(name, "shards.") {
			continue
		}
		os.RemoveAll(filepath.Join(s.dir, name))
	}
}

// append is the catalog mutation hook: called with the mutated shard's
// lock (or collMu) held, so WAL order matches apply order per shard.
func (s *Store) append(m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Append(encodeMutation(m))
}

// Records reports WAL records since the last compaction.
func (s *Store) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Records()
}

// Failed reports the journal's latched failure, if any.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Failed()
}

// Compact freezes the catalog into a fresh per-shard snapshot generation
// and truncates the WAL. It quiesces the catalog (every shard lock plus
// the collection lock) for the duration of the snapshot write, so no
// mutation can land in the WAL being truncated without also being in the
// snapshot; callers run it from a maintenance loop, not the hot path.
func (s *Store) Compact() error {
	for _, sh := range s.c.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s.c.collMu.Lock()
	defer s.c.collMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	gen := s.gen + 1
	dir := filepath.Join(s.dir, shardsDirName(gen))
	if err := s.c.writeShards(dir); err != nil {
		os.RemoveAll(dir)
		return err
	}
	if err := s.j.Compact([]byte(fmt.Sprintf("rls-shards %d", gen))); err != nil {
		os.RemoveAll(dir)
		return err
	}
	old := s.gen
	s.gen = gen
	os.RemoveAll(filepath.Join(s.dir, shardsDirName(old)))
	return nil
}

// MaybeCompact compacts when the WAL has grown past compactRecords;
// reports whether it did.
func (s *Store) MaybeCompact() (bool, error) {
	if s.Records() < compactRecords {
		return false, nil
	}
	return true, s.Compact()
}

// Close compacts once more (so restart replays nothing) and closes the
// WAL. A failed journal skips the final compact but still closes.
func (s *Store) Close() error {
	var cerr error
	if s.Failed() == nil {
		cerr = s.Compact()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.Close(); err != nil {
		return err
	}
	return cerr
}

// replay applies a recovered WAL record. Replay is tolerant: records are
// facts about mutations that already succeeded, so "already exists" /
// "not found" conditions (snapshot written after the record's shard was
// mutated further) are absorbed rather than failed.
func (s *Store) replay(m Mutation) {
	c := s.c
	switch m.Op {
	case MutRegister:
		if m.Serial > c.serial.Load() {
			c.serial.Store(m.Serial)
		}
		sh := c.shards[shardIndex(m.LFN, len(c.shards))]
		if _, ok := sh.files[m.LFN]; !ok {
			attrs := m.Attrs
			if attrs == nil {
				attrs = make(map[string]string)
			}
			sh.files[m.LFN] = &LogicalFile{Name: m.LFN, Attrs: attrs}
			sh.locations[m.LFN] = make(map[string]bool)
		}
	case MutSetAttrs:
		sh := c.shards[shardIndex(m.LFN, len(c.shards))]
		if f, ok := sh.files[m.LFN]; ok {
			for k, v := range m.Attrs {
				f.Attrs[k] = v
			}
		}
	case MutDelete:
		sh := c.shards[shardIndex(m.LFN, len(c.shards))]
		delete(sh.files, m.LFN)
		delete(sh.locations, m.LFN)
		for _, set := range c.collections {
			delete(set, m.LFN)
		}
	case MutAddReplica:
		sh := c.shards[shardIndex(m.LFN, len(c.shards))]
		if locs, ok := sh.locations[m.LFN]; ok {
			locs[m.PFN] = true
		}
	case MutRemoveReplica:
		sh := c.shards[shardIndex(m.LFN, len(c.shards))]
		if locs, ok := sh.locations[m.LFN]; ok {
			delete(locs, m.PFN)
		}
	case MutCreateColl:
		if _, ok := c.collections[m.Coll]; !ok {
			c.collections[m.Coll] = make(map[string]bool)
		}
	case MutDeleteColl:
		delete(c.collections, m.Coll)
	case MutAddToColl:
		if set, ok := c.collections[m.Coll]; ok {
			set[m.LFN] = true
		}
	case MutRemoveFromColl:
		if set, ok := c.collections[m.Coll]; ok {
			delete(set, m.LFN)
		}
	}
}

// Mutation records ride the WAL in the RPC wire encoding.
const mutationRecordV1 = 1

func encodeMutation(m Mutation) []byte {
	var e rpc.Encoder
	e.Uint8(mutationRecordV1)
	e.String(m.Op)
	e.String(m.LFN)
	e.String(m.PFN)
	e.String(m.Coll)
	e.Bool(m.Force)
	e.Uint64(m.Serial)
	encodeAttrs(&e, m.Attrs)
	return e.Bytes()
}

func decodeMutation(p []byte) (Mutation, error) {
	d := rpc.NewDecoder(p)
	if v := d.Uint8(); v != mutationRecordV1 {
		return Mutation{}, fmt.Errorf("unknown mutation record version %d", v)
	}
	m := Mutation{
		Op:     d.String(),
		LFN:    d.String(),
		PFN:    d.String(),
		Coll:   d.String(),
		Force:  d.Bool(),
		Serial: d.Uint64(),
		Attrs:  decodeAttrs(d),
	}
	return m, d.Finish()
}
