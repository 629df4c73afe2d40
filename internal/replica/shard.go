package replica

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// The catalog's file table is hash-partitioned into shards, each with
// its own lock, so lookups and replica updates for different LFNs never
// serialize on one mutex. The sharded table is the central catalog's;
// the sites' Local Replica Catalogs are their own local catalogs
// (internal/core), indexed by the RLI this catalog's server hosts (see
// rli.go).

// DefaultShards is the shard count a zero Options.Shards takes. It must be a
// power of two so the shard pick is a mask, not a modulo.
const DefaultShards = 64

// catShard is one hash partition of the file table: the logical-file
// entries whose names hash here plus their replica locations, guarded by
// a partition-private lock.
type catShard struct {
	mu        sync.RWMutex
	files     map[string]*LogicalFile
	locations map[string]map[string]bool // lfn -> set of PFNs
}

func newCatShard() *catShard {
	return &catShard{
		files:     make(map[string]*LogicalFile),
		locations: make(map[string]map[string]bool),
	}
}

// shardIndex hashes an LFN onto a shard (FNV-1a; nShards is a power of
// two). A reopened store applies every record through it under the new
// catalog's shard count, so a shard-count change is a rebalance, not a
// migration.
func shardIndex(lfn string, nShards int) int {
	h := fnv.New64a()
	h.Write([]byte(lfn))
	return int(h.Sum64() & uint64(nShards-1))
}

func (c *Catalog) shardFor(lfn string) (*catShard, int) {
	i := shardIndex(lfn, len(c.shards))
	return c.shards[i], i
}

// Mutation ops journaled through the catalog's mutation hook.
const (
	MutRegister       = "register"
	MutSetAttrs       = "setattrs"
	MutDelete         = "delete"
	MutAddReplica     = "add_replica"
	MutRemoveReplica  = "remove_replica"
	MutCreateColl     = "create_collection"
	MutDeleteColl     = "delete_collection"
	MutAddToColl      = "add_to_collection"
	MutRemoveFromColl = "remove_from_collection"
)

// Mutation describes one catalog state change. A mutating Catalog method
// checks its precondition, hands the Mutation to the hook
// (Catalog.OnMutate) and, once the hook accepts it, makes the change
// through apply. The journaled Store's hook appends it to a WAL; a reopen
// applies the snapshot's records and then the WAL's through the same apply.
type Mutation struct {
	Op    string
	LFN   string
	PFN   string
	Coll  string
	Force bool
	// Serial carries the generator counter for MutRegister records minted
	// by GenerateLFN, so replay restores name-generation monotonicity.
	Serial uint64
	Attrs  map[string]string
}

// OnMutate installs the mutation hook, called before each state change
// applies, while the locks that change needs are held, so hook
// invocations for one shard are ordered exactly as the changes apply. A
// non-nil error from the hook is returned to the caller of the mutating
// operation and the change is not made: the same journal-before-apply
// contract internal/core uses for site state. A nil hook (the default)
// disables journaling.
func (c *Catalog) OnMutate(fn func(Mutation) error) {
	c.onMutate = fn
}

// commit hands m to the hook and applies it once the hook has accepted
// it, so a refused append changes nothing. Call with the locks apply
// needs held.
func (c *Catalog) commit(m Mutation) error {
	if c.onMutate != nil {
		if err := c.onMutate(m); err != nil {
			return err
		}
	}
	return c.apply(m)
}

// apply makes one mutation's change: the only writer of the file,
// location and collection tables. commit calls it with the locks of the
// tables it changes held; a reopening store calls it for every snapshot
// and WAL record, in order, before anyone else can see the catalog.
// Records are facts about changes whose preconditions already held, so
// "already exists" and "not found" are absorbed, not failed. A member is
// added only while its file exists, so neither a snapshot nor a replay
// can hold a member without a file.
func (c *Catalog) apply(m Mutation) error {
	sh := c.shards[shardIndex(m.LFN, len(c.shards))]
	switch m.Op {
	case MutRegister:
		if m.Serial > c.serial.Load() {
			c.serial.Store(m.Serial)
		}
		// A nameless register, the snapshot's first record, carries only
		// the serial: no file may be named "".
		if _, ok := sh.files[m.LFN]; !ok && m.LFN != "" {
			attrs := m.Attrs
			if attrs == nil {
				attrs = make(map[string]string)
			}
			sh.files[m.LFN] = &LogicalFile{Name: m.LFN, Attrs: attrs}
			sh.locations[m.LFN] = make(map[string]bool)
		}
	case MutSetAttrs:
		if f, ok := sh.files[m.LFN]; ok {
			for k, v := range m.Attrs {
				f.Attrs[k] = v
			}
		}
	case MutDelete:
		delete(sh.files, m.LFN)
		delete(sh.locations, m.LFN)
		for _, set := range c.collections {
			delete(set, m.LFN)
		}
	case MutAddReplica:
		if locs, ok := sh.locations[m.LFN]; ok {
			locs[m.PFN] = true
		}
	case MutRemoveReplica:
		delete(sh.locations[m.LFN], m.PFN)
	case MutCreateColl:
		if _, ok := c.collections[m.Coll]; !ok {
			c.collections[m.Coll] = make(map[string]bool)
		}
	case MutDeleteColl:
		delete(c.collections, m.Coll)
	case MutAddToColl:
		if set, ok := c.collections[m.Coll]; ok && sh.files[m.LFN] != nil {
			set[m.LFN] = true
		}
	case MutRemoveFromColl:
		delete(c.collections[m.Coll], m.LFN)
	default:
		return fmt.Errorf("replica: unknown mutation op %q", m.Op)
	}
	return nil
}
