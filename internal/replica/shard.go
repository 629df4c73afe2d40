package replica

import (
	"hash/fnv"
	"sync"
)

// The catalog's file table is hash-partitioned into shards, each with
// its own lock, so lookups and replica updates for different LFNs never
// serialize on one mutex. This is the LRC half of the RLS split: every
// site's Local Replica Catalog is a sharded Catalog, and the historical
// central catalog becomes just one LRC among peers (see rli.go for the
// index tier).

// DefaultShards is the shard count used by NewCatalog. It must be a
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
// two). The same function redistributes entries when per-shard snapshots
// are reloaded under a different shard count (see LoadShards), so a
// shard-count change is a rebalance, not a migration.
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

// Mutation describes one committed catalog state change, in the order it
// took effect on its shard. The mutation hook (Catalog.OnMutate) sees
// every one; the journaled Store appends them to a WAL so a crash
// replays the shard ops on top of the last per-shard snapshot set.
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

// OnMutate installs the mutation hook, called after each state change
// commits to its shard (while the shard or collection lock is still
// held, so hook invocations for one shard are ordered exactly as the
// mutations were applied). A non-nil error from the hook propagates to
// the caller of the mutating operation: the mutation is in memory but
// was not acknowledged as durable, the same journal-before-ack contract
// internal/core uses for site state. A nil hook (the default) disables
// journaling.
func (c *Catalog) OnMutate(fn func(Mutation) error) {
	c.onMutate = fn
}

// mutated runs the hook. Call with the mutated shard's lock (collMu for a
// collection op) held.
func (c *Catalog) mutated(m Mutation) error {
	if c.onMutate == nil {
		return nil
	}
	return c.onMutate(m)
}
