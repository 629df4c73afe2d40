package replica

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/rpc"
)

// Store makes a Catalog durable: every mutation is appended to a
// write-ahead log through the catalog's hook before it applies, and
// Compact hands the journal the records that rebuild the quiesced catalog
// (see snapshotRecords) as its snapshot before the WAL is truncated.
// OpenStore recovers by applying the snapshot's records and then the WAL's
// through the catalog's one apply — the same journal-before-apply contract
// internal/core uses for site state.
type Store struct {
	c *Catalog

	// mu guards the journal, whose methods are not concurrency-safe. Lock
	// order: shard locks, then collMu, then mu — append runs under the
	// mutating operation's locks, and Compact takes every shard lock and
	// collMu before mu.
	mu sync.Mutex
	j  *journal.Journal
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

// OpenStore opens (creating if needed) the journaled store in dir and
// recovers the empty catalog c from it. On return the catalog's mutation
// hook is installed; the caller must not replace it.
func OpenStore(dir string, c *Catalog, opts StoreOptions) (*Store, error) {
	// The snapshot's records, then the WAL's, each through decodeMutation
	// and apply, so every entry lands on the shard its hash names under this
	// catalog's shard count.
	var n int
	j, _, err := journal.Open(filepath.Join(dir, storeWALDir), journal.Options{
		NoSync:   opts.NoSync,
		Registry: opts.Registry,
		Replay: func(r []byte) error {
			d := rpc.NewDecoder(r)
			m, err := decodeMutation(d)
			if err == nil {
				err = d.Finish()
			}
			if err == nil {
				err = c.apply(m)
			}
			if err != nil {
				return fmt.Errorf("journal record %d: %w", n, err)
			}
			n++
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("replica: store %s: %w", dir, err)
	}
	st := &Store{c: c, j: j}
	c.OnMutate(st.append)
	return st, nil
}

// append is the catalog mutation hook: called with the mutating
// operation's locks held, so WAL order matches apply order per shard.
func (s *Store) append(m Mutation) error {
	var e rpc.Encoder
	encodeMutation(&e, m)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Append(e.Bytes())
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

// Compact makes the catalog's records the journal's snapshot and truncates
// the WAL. It quiesces the catalog (every shard lock plus the collection
// lock) while the snapshot is encoded and written, so no mutation can land
// in the WAL being truncated without also being in the snapshot; callers
// run it from a maintenance loop, not the hot path.
func (s *Store) Compact() error {
	for _, sh := range s.c.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s.c.collMu.Lock()
	defer s.c.collMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Compact(s.c.snapshotRecords)
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

// snapshotRecords pushes the encoded records that rebuild the quiesced
// catalog (the caller holds every shard lock and collMu): a register
// carrying only the LFN serial, which no file may be named, so generated
// names stay unique even when no file is left; then each file's register
// and add_replica records, shard by shard; then each collection's create
// and add_to_collection records. Every list is sorted, so the snapshot's
// bytes depend only on the contents. One buffer is reused throughout.
func (c *Catalog) snapshotRecords(yield func([]byte) bool) {
	var e rpc.Encoder
	more := true
	emit := func(m Mutation) {
		e.Reset()
		encodeMutation(&e, m)
		more = more && yield(e.Bytes())
	}
	emit(Mutation{Op: MutRegister, Serial: c.serial.Load()})
	for _, sh := range c.shards {
		for _, lfn := range sortedKeys(sh.files) {
			emit(Mutation{Op: MutRegister, LFN: lfn, Attrs: sh.files[lfn].Attrs})
			for _, pfn := range sortedKeys(sh.locations[lfn]) {
				emit(Mutation{Op: MutAddReplica, LFN: lfn, PFN: pfn})
			}
		}
	}
	for _, coll := range sortedKeys(c.collections) {
		emit(Mutation{Op: MutCreateColl, Coll: coll})
		for _, lfn := range sortedKeys(c.collections[coll]) {
			emit(Mutation{Op: MutAddToColl, Coll: coll, LFN: lfn})
		}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Mutation records are the journal's records, in the WAL and the snapshot
// alike, in the RPC wire encoding.
const mutationRecordV1 = 1

// encodeMutation appends one mutation record to e.
func encodeMutation(e *rpc.Encoder, m Mutation) {
	e.Uint8(mutationRecordV1)
	e.String(m.Op)
	e.String(m.LFN)
	e.String(m.PFN)
	e.String(m.Coll)
	e.Bool(m.Force)
	e.Uint64(m.Serial)
	encodeAttrs(e, m.Attrs)
}

// decodeMutation reads one mutation record from d.
func decodeMutation(d *rpc.Decoder) (Mutation, error) {
	if v := d.Uint8(); v != mutationRecordV1 && d.Err() == nil {
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
	return m, d.Err()
}
