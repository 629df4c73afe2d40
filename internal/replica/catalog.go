// Package replica implements the Replica Catalog of Section 3.1: the
// "fundamental building block in Data Grid systems" that keeps track of
// multiple physical copies of a single logical file by maintaining a
// mapping from logical file names to physical locations.
//
// The catalog contains the paper's three object types:
//
//   - collection: a named group of logical file names, because "datasets are
//     normally manipulated as a whole";
//   - logical file entry: an optional record holding attribute-value pairs
//     (size, modify timestamp, checksum, ...) for one logical file;
//   - location: the mapping from a logical file name (a globally unique
//     identifier, not a physical location) to the possibly multiple physical
//     locations of its replicas.
//
// Operations mirror the paper's list: creation and deletion of collection,
// location, and logical file entries; insertion and removal of logical file
// names into collections and locations; listing; and "the heart of the
// system, a function to return all physical locations of a logical file".
// Queries accept LDAP-style search filters (see filter.go), standing in for
// the LDAP backend of the Globus implementation.
//
// The GDMP paper deploys a single central catalog per Grid, and the
// Catalog is that central catalog (see server.go): an LFN-sharded table —
// hash-partitioned shards, each with its own lock and journal hook. The
// RLS split of the EU DataGrid retrospectives sits around it. Each site's
// Local Replica Catalog (LRC) is that site's own local catalog
// (internal/core, rls.go), and the catalog server also hosts the Replica
// Location Index (RLI, rli.go) that aggregates soft-state site membership
// from the bloom-filter digests the LRCs push (bloom.go).
package replica

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdmp/internal/obs"
)

// Well-known attribute names used by GDMP when publishing files
// (Section 4.2: "meta-information about the file (such as file size and
// modify time-stamps)").
const (
	AttrSize     = "size"
	AttrModified = "mtime"
	AttrCRC      = "crc32"
	AttrOwner    = "owner"
	AttrFileType = "filetype"
)

// Errors returned by catalog operations. ErrExists and ErrNotFound cross
// the wire as codes (see kindError), so errors.Is holds for them at a
// remote client too.
var (
	ErrExists        = &kindError{"replica: entry already exists", 1}
	ErrNotFound      = &kindError{"replica: entry not found", 2}
	ErrBadName       = errors.New("replica: invalid name")
	ErrNotEmpty      = errors.New("replica: collection not empty")
	ErrNoSuchReplica = errors.New("replica: no such replica")
)

// kindError is a kind of catalog error that a caller must tell apart
// from the rest. The server's error reply carries its code (rpc reads
// RPCCode), and Client.call maps the code back to the kind.
type kindError struct {
	msg  string
	code uint32
}

func (e *kindError) Error() string   { return e.msg }
func (e *kindError) RPCCode() uint32 { return e.code }

// LogicalFile is one logical file entry: a globally unique name plus
// attribute-value metadata.
type LogicalFile struct {
	Name  string
	Attrs map[string]string
}

// clone returns a deep copy so callers cannot mutate catalog state.
func (f *LogicalFile) clone() *LogicalFile {
	attrs := make(map[string]string, len(f.Attrs))
	for k, v := range f.Attrs {
		attrs[k] = v
	}
	return &LogicalFile{Name: f.Name, Attrs: attrs}
}

// Size returns the size attribute, if present and numeric.
func (f *LogicalFile) Size() (int64, bool) {
	v, ok := f.Attrs[AttrSize]
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Catalog is the in-memory central replica catalog, served beside the
// RLI it hosts: the file table is hash-partitioned across shards (see
// shard.go), each guarded by its own RWMutex, so operations on different
// LFNs proceed in parallel.
// Collections group LFNs across shards and keep a separate lock. Safe
// for concurrent use.
type Catalog struct {
	shards      []*catShard
	collMu      sync.RWMutex
	collections map[string]map[string]bool // collection -> set of LFNs
	serial      atomic.Uint64              // for LFN auto-generation
	onMutate    func(Mutation) error
	reg         *obs.Registry // the catalog's; its server records here too
	met         *catalogMetrics
	rls         *rlsCatalogMetrics
}

// Options tunes a Catalog.
type Options struct {
	// Shards is the number of hash partitions; rounded up to a power of
	// two, DefaultShards when zero. 1 degenerates to the historical
	// single-mutex catalog (the bench baseline).
	Shards int
	// Registry receives the catalog's metrics and those of the Server
	// that serves it (a private one when nil).
	Registry *obs.Registry
}

// New creates an empty catalog with the given options.
func New(opts Options) *Catalog {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard picks mask instead of mod.
	p := 1
	for p < n {
		p <<= 1
	}
	r := opts.Registry
	if r == nil {
		r = obs.NewRegistry()
	}
	c := &Catalog{
		shards:      make([]*catShard, p),
		collections: make(map[string]map[string]bool),
		reg:         r,
		met:         newCatalogMetrics(r),
		rls:         newRLSCatalogMetrics(r, p),
	}
	for i := range c.shards {
		c.shards[i] = newCatShard()
	}
	return c
}

// ShardCount reports the number of hash partitions.
func (c *Catalog) ShardCount() int { return len(c.shards) }

func validName(n string) error {
	if n == "" || strings.ContainsAny(n, "\n\r\t") {
		return fmt.Errorf("%w: %q", ErrBadName, n)
	}
	return nil
}

// --- logical files -------------------------------------------------------

// Register creates a logical file entry. The name must be globally unique:
// registering an existing name fails, which is how GDMP "ensures a global
// name space" and verifies user-selected logical file names.
func (c *Catalog) Register(name string, attrs map[string]string) (err error) {
	defer c.met.record(opRegister, time.Now(), &err)
	if err := validName(name); err != nil {
		return err
	}
	return c.register(name, attrs, 0)
}

func (c *Catalog) register(name string, attrs map[string]string, serial uint64) error {
	sh, i := c.shardFor(name)
	c.rls.update(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.files[name]; ok {
		return fmt.Errorf("%w: logical file %q", ErrExists, name)
	}
	return c.commit(Mutation{Op: MutRegister, LFN: name, Attrs: maps.Clone(attrs), Serial: serial})
}

// GenerateLFN reserves and registers an automatically generated unique
// logical file name incorporating the site name and base name, GDMP's
// "automatic generation ... of new logical file names".
func (c *Catalog) GenerateLFN(site, base string, attrs map[string]string) (lfn string, err error) {
	defer c.met.record(opGenerate, time.Now(), &err)
	if err := validName(site); err != nil {
		return "", err
	}
	if err := validName(base); err != nil {
		return "", err
	}
	for {
		serial := c.serial.Add(1)
		name := fmt.Sprintf("lfn://%s/%s.%06d", site, base, serial)
		err := c.register(name, attrs, serial)
		if errors.Is(err, ErrExists) {
			continue // serial restored below an already-used value; advance past it
		}
		if err != nil {
			return "", err
		}
		return name, nil
	}
}

// Lookup returns a copy of the logical file entry. Internal hot paths
// that only need to read should prefer ReadEntry, which skips the deep
// copy.
func (c *Catalog) Lookup(name string) (f *LogicalFile, err error) {
	defer c.met.record(opLookup, time.Now(), &err)
	defer c.rls.lookup(time.Now())
	sh, i := c.shardFor(name)
	c.rls.shardLookups[i].Inc()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	lf, ok := sh.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: logical file %q", ErrNotFound, name)
	}
	return lf.clone(), nil
}

// ReadEntry runs fn on the live logical-file entry under the shard read
// lock, without cloning — the copy-free read path for internal callers
// on the lookup hot path. The entry is only valid for the duration of
// fn and must not be mutated or retained.
func (c *Catalog) ReadEntry(name string, fn func(f *LogicalFile)) (err error) {
	defer c.rls.lookup(time.Now())
	sh, i := c.shardFor(name)
	c.rls.shardLookups[i].Inc()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	lf, ok := sh.files[name]
	if !ok {
		return fmt.Errorf("%w: logical file %q", ErrNotFound, name)
	}
	fn(lf)
	return nil
}

// SetAttrs merges attribute updates into an existing entry.
func (c *Catalog) SetAttrs(name string, attrs map[string]string) (err error) {
	defer c.met.record(opSetAttrs, time.Now(), &err)
	sh, i := c.shardFor(name)
	c.rls.update(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.files[name]; !ok {
		return fmt.Errorf("%w: logical file %q", ErrNotFound, name)
	}
	return c.commit(Mutation{Op: MutSetAttrs, LFN: name, Attrs: attrs})
}

// Delete removes a logical file entry, its replica locations, and its
// membership in any collections.
func (c *Catalog) Delete(name string) (err error) {
	defer c.met.record(opDelete, time.Now(), &err)
	sh, i := c.shardFor(name)
	c.rls.update(i)
	// The change reaches the collections too. Lock order: a shard lock,
	// then collMu (Compact takes them in the same order).
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.collMu.Lock()
	defer c.collMu.Unlock()
	if _, ok := sh.files[name]; !ok {
		return fmt.Errorf("%w: logical file %q", ErrNotFound, name)
	}
	return c.commit(Mutation{Op: MutDelete, LFN: name})
}

// Files returns all logical file names, sorted.
func (c *Catalog) Files() []string {
	defer c.met.record(opFiles, time.Now(), nil)
	var out []string
	for _, sh := range c.shards {
		sh.mu.RLock()
		for n := range sh.files {
			out = append(out, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Query returns copies of the logical files whose attributes satisfy the
// filter expression (see ParseFilter). Clients "can specify filters to
// obtain the exact information that they require".
func (c *Catalog) Query(filter string) (out []*LogicalFile, err error) {
	defer c.met.record(opQuery, time.Now(), &err)
	f, err := ParseFilter(filter)
	if err != nil {
		return nil, err
	}
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, lf := range sh.files {
			if f.Match(lf) {
				out = append(out, lf.clone())
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// --- locations -----------------------------------------------------------

// AddReplica records a physical location (PFN) for a logical file.
func (c *Catalog) AddReplica(lfn, pfn string) (err error) {
	defer c.met.record(opAddReplica, time.Now(), &err)
	if err := validName(pfn); err != nil {
		return err
	}
	sh, i := c.shardFor(lfn)
	c.rls.update(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	locs, ok := sh.locations[lfn]
	if !ok {
		return fmt.Errorf("%w: logical file %q", ErrNotFound, lfn)
	}
	if locs[pfn] {
		return fmt.Errorf("%w: replica %q of %q", ErrExists, pfn, lfn)
	}
	return c.commit(Mutation{Op: MutAddReplica, LFN: lfn, PFN: pfn})
}

// RemoveReplica deletes one physical location of a logical file.
func (c *Catalog) RemoveReplica(lfn, pfn string) (err error) {
	defer c.met.record(opRemoveReplica, time.Now(), &err)
	sh, i := c.shardFor(lfn)
	c.rls.update(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	locs, ok := sh.locations[lfn]
	if !ok {
		return fmt.Errorf("%w: logical file %q", ErrNotFound, lfn)
	}
	if !locs[pfn] {
		return fmt.Errorf("%w: %q of %q", ErrNoSuchReplica, pfn, lfn)
	}
	return c.commit(Mutation{Op: MutRemoveReplica, LFN: lfn, PFN: pfn})
}

// Locations returns all physical locations of a logical file, sorted — the
// paper's "heart of the system".
func (c *Catalog) Locations(lfn string) (out []string, err error) {
	defer c.met.record(opLocations, time.Now(), &err)
	defer c.rls.lookup(time.Now())
	sh, i := c.shardFor(lfn)
	c.rls.shardLookups[i].Inc()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	locs, ok := sh.locations[lfn]
	if !ok {
		return nil, fmt.Errorf("%w: logical file %q", ErrNotFound, lfn)
	}
	out = make([]string, 0, len(locs))
	for pfn := range locs {
		out = append(out, pfn)
	}
	sort.Strings(out)
	return out, nil
}

// --- collections ---------------------------------------------------------

// CreateCollection creates an empty collection.
func (c *Catalog) CreateCollection(name string) (err error) {
	defer c.met.record(opCreateCollection, time.Now(), &err)
	if err := validName(name); err != nil {
		return err
	}
	c.collMu.Lock()
	defer c.collMu.Unlock()
	if _, ok := c.collections[name]; ok {
		return fmt.Errorf("%w: collection %q", ErrExists, name)
	}
	return c.commit(Mutation{Op: MutCreateColl, Coll: name})
}

// DeleteCollection removes a collection. It must be empty unless force is
// set, protecting against accidental loss of dataset groupings.
func (c *Catalog) DeleteCollection(name string, force bool) (err error) {
	defer c.met.record(opDeleteCollection, time.Now(), &err)
	c.collMu.Lock()
	defer c.collMu.Unlock()
	set, ok := c.collections[name]
	if !ok {
		return fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	if len(set) > 0 && !force {
		return fmt.Errorf("%w: %q has %d members", ErrNotEmpty, name, len(set))
	}
	return c.commit(Mutation{Op: MutDeleteColl, Coll: name, Force: force})
}

// AddToCollection inserts a registered logical file into a collection.
func (c *Catalog) AddToCollection(coll, lfn string) (err error) {
	defer c.met.record(opAddToColl, time.Now(), &err)
	// The file's shard stays locked until the member is in, so a Delete
	// cannot run between the check and the change. Lock order as Delete.
	sh, _ := c.shardFor(lfn)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c.collMu.Lock()
	defer c.collMu.Unlock()
	if _, ok := sh.files[lfn]; !ok {
		return fmt.Errorf("%w: logical file %q", ErrNotFound, lfn)
	}
	if _, ok := c.collections[coll]; !ok {
		return fmt.Errorf("%w: collection %q", ErrNotFound, coll)
	}
	return c.commit(Mutation{Op: MutAddToColl, Coll: coll, LFN: lfn})
}

// RemoveFromCollection removes a logical file from a collection.
func (c *Catalog) RemoveFromCollection(coll, lfn string) (err error) {
	defer c.met.record(opRemoveFromColl, time.Now(), &err)
	c.collMu.Lock()
	defer c.collMu.Unlock()
	set, ok := c.collections[coll]
	if !ok {
		return fmt.Errorf("%w: collection %q", ErrNotFound, coll)
	}
	if !set[lfn] {
		return fmt.Errorf("%w: %q not in collection %q", ErrNotFound, lfn, coll)
	}
	return c.commit(Mutation{Op: MutRemoveFromColl, Coll: coll, LFN: lfn})
}

// ListCollection returns the sorted members of a collection.
func (c *Catalog) ListCollection(name string) (out []string, err error) {
	defer c.met.record(opListCollection, time.Now(), &err)
	c.collMu.RLock()
	defer c.collMu.RUnlock()
	set, ok := c.collections[name]
	if !ok {
		return nil, fmt.Errorf("%w: collection %q", ErrNotFound, name)
	}
	out = make([]string, 0, len(set))
	for lfn := range set {
		out = append(out, lfn)
	}
	sort.Strings(out)
	return out, nil
}

// Collections returns all collection names, sorted.
func (c *Catalog) Collections() []string {
	defer c.met.record(opCollections, time.Now(), nil)
	c.collMu.RLock()
	defer c.collMu.RUnlock()
	out := make([]string, 0, len(c.collections))
	for n := range c.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes catalog contents.
type Stats struct {
	Files       int
	Replicas    int
	Collections int
}

// Stats returns entry counts.
func (c *Catalog) Stats() Stats {
	defer c.met.record(opStats, time.Now(), nil)
	var s Stats
	for _, sh := range c.shards {
		sh.mu.RLock()
		s.Files += len(sh.files)
		for _, locs := range sh.locations {
			s.Replicas += len(locs)
		}
		sh.mu.RUnlock()
	}
	c.collMu.RLock()
	s.Collections = len(c.collections)
	c.collMu.RUnlock()
	return s
}

// Digest builds a bloom filter over every LFN currently in the catalog,
// sized for the given false-positive rate. Sites push these to the RLI
// tier as their soft-state membership digest.
func (c *Catalog) Digest(fpRate float64) *Bloom {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.files)
		sh.mu.RUnlock()
	}
	b := NewBloom(n, fpRate)
	for _, sh := range c.shards {
		sh.mu.RLock()
		for name := range sh.files {
			b.Add(name)
		}
		sh.mu.RUnlock()
	}
	return b
}

// Timestamp formats a time the way catalog attributes store it (RFC3339).
func Timestamp(t time.Time) string { return t.UTC().Format(time.RFC3339) }
