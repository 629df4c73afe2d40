package objrep

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gdmp/internal/core"
	"gdmp/internal/objectstore"
)

// Index is the global view of which objects exist where (Section 5.2):
// a mapping from an object's original identifier to the sites holding a
// replica, and — because extraction renumbers objects into new database
// files — the object's local identifier at each site. This is the location
// table of [HoSt00] ("Building a Large Location Table to Find Replicas of
// Physics Objects"). The paper maintains this view "in a set of index
// files ... themselves maintained and replicated on demand using
// file-based replication by GDMP and Globus"; Save/PublishTo and FetchFrom
// implement exactly that. Index is safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	locs map[objectstore.OID]map[string]objectstore.OID // orig -> site -> local OID
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{locs: make(map[objectstore.OID]map[string]objectstore.OID)}
}

// AddAt records that a site holds the object under a (possibly renumbered)
// local identifier.
func (ix *Index) AddAt(orig objectstore.OID, site string, local objectstore.OID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	set := ix.locs[orig]
	if set == nil {
		set = make(map[string]objectstore.OID)
		ix.locs[orig] = set
	}
	set[site] = local
}

// LocalOID resolves the object's identifier at a specific site.
func (ix *Index) LocalOID(orig objectstore.OID, site string) (objectstore.OID, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	local, ok := ix.locs[orig][site]
	return local, ok
}

// Missing filters the set down to objects the site does not hold — the
// "objects not yet present on the destination site are identified" step.
func (ix *Index) Missing(oids []objectstore.OID, site string) []objectstore.OID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []objectstore.OID
	for _, oid := range oids {
		if _, ok := ix.locs[oid][site]; !ok {
			out = append(out, oid)
		}
	}
	return out
}

// CollectiveLookup resolves a whole object set in one operation, grouping
// the objects by a site able to serve them — the paper's "one single
// collective lookup operation on the global view". Objects with no known
// location are returned under the empty site key.
func (ix *Index) CollectiveLookup(oids []objectstore.OID) map[string][]objectstore.OID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[string][]objectstore.OID)
	for _, oid := range oids {
		set := ix.locs[oid]
		if len(set) == 0 {
			out[""] = append(out[""], oid)
			continue
		}
		// Deterministic choice: lexicographically smallest site.
		best := ""
		for s := range set {
			if best == "" || s < best {
				best = s
			}
		}
		out[best] = append(out[best], oid)
	}
	return out
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.locs)
}

// Save writes the index as sorted text lines:
// "origdb:slot site1=localdb:slot site2=localdb:slot ...".
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	oids := make([]objectstore.OID, 0, len(ix.locs))
	for oid := range ix.locs {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool {
		if oids[i].DB != oids[j].DB {
			return oids[i].DB < oids[j].DB
		}
		return oids[i].Slot < oids[j].Slot
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "gdmp-object-index v1")
	for _, oid := range oids {
		sites := make([]string, 0, len(ix.locs[oid]))
		for s := range ix.locs[oid] {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		parts := make([]string, len(sites))
		for i, s := range sites {
			parts[i] = s + "=" + ix.locs[oid][s].String()
		}
		fmt.Fprintf(bw, "%s %s\n", oid, strings.Join(parts, " "))
	}
	return bw.Flush()
}

// LoadIndex parses a Save'd index.
func LoadIndex(r io.Reader) (*Index, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "gdmp-object-index v1" {
		return nil, fmt.Errorf("objrep: bad index header")
	}
	ix := NewIndex()
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("objrep: index line %d: want oid and sites", line)
		}
		oid, err := objectstore.ParseOID(fields[0])
		if err != nil {
			return nil, fmt.Errorf("objrep: index line %d: %w", line, err)
		}
		for _, entry := range fields[1:] {
			site, localStr, hasLocal := strings.Cut(entry, "=")
			if site == "" {
				return nil, fmt.Errorf("objrep: index line %d: empty site", line)
			}
			local := oid
			if hasLocal {
				local, err = objectstore.ParseOID(localStr)
				if err != nil {
					return nil, fmt.Errorf("objrep: index line %d: %w", line, err)
				}
			}
			ix.AddAt(oid, site, local)
		}
	}
	return ix, sc.Err()
}

// PublishTo saves the index into a site's data directory and publishes it
// to the Grid as an ordinary flat file, so other sites replicate the global
// view with the plain file machinery.
func (ix *Index) PublishTo(site *core.Site, relPath, lfn string) (core.PublishedFile, error) {
	full := filepath.Join(site.DataDir(), filepath.FromSlash(relPath))
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return core.PublishedFile{}, err
	}
	f, err := os.Create(full)
	if err != nil {
		return core.PublishedFile{}, err
	}
	if err := ix.Save(f); err != nil {
		f.Close()
		return core.PublishedFile{}, err
	}
	if err := f.Close(); err != nil {
		return core.PublishedFile{}, err
	}
	return site.Publish(relPath, core.PublishOptions{LFN: lfn})
}

// FetchFrom replicates a published index file to the destination site and
// parses it.
func FetchFrom(dest *core.Site, lfn string) (*Index, error) {
	if err := dest.Get(lfn); err != nil {
		return nil, err
	}
	var rel string
	for _, fi := range dest.LocalFiles() {
		if fi.LFN == lfn {
			rel = fi.Path
			break
		}
	}
	if rel == "" {
		return nil, fmt.Errorf("objrep: %s not in local catalog after Get", lfn)
	}
	f, err := os.Open(filepath.Join(dest.DataDir(), filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadIndex(f)
}
