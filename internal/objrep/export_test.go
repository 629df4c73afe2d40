package objrep

import (
	"sort"

	"gdmp/internal/objectstore"
)

// Test-only views of an Index: no program path drops a replica from the
// index or lists an object's sites.

// Remove drops a site's replica of the object.
func (ix *Index) Remove(oid objectstore.OID, site string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if set := ix.locs[oid]; set != nil {
		delete(set, site)
		if len(set) == 0 {
			delete(ix.locs, oid)
		}
	}
}

// Sites returns the sorted sites holding the object.
func (ix *Index) Sites(oid objectstore.OID) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	set := ix.locs[oid]
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
