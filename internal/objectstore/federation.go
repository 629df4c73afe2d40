package objectstore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gdmp/internal/durable"
)

// Federation is the site-local object database catalog, the analogue of an
// Objectivity federation: the set of database files currently attached at
// this site, with object lookup and navigation across them. The federation
// "does not know about other sites" (Section 4.1) — navigation to an object
// whose database is not attached locally fails with ErrNotAttached, the
// exact condition that forces associated files to be replicated together.
type Federation struct {
	mu   sync.RWMutex
	dbs  map[uint32]string // dbid -> path
	open map[uint32]*DB    // lazily opened readers
}

// ErrNotAttached reports navigation to a database that is not local.
var ErrNotAttached = errors.New("objectstore: database not attached to this federation")

// ErrAlreadyAttached reports a duplicate attach.
var ErrAlreadyAttached = errors.New("objectstore: database already attached")

// NewFederation creates an empty federation.
func NewFederation() *Federation {
	return &Federation{
		dbs:  make(map[uint32]string),
		open: make(map[uint32]*DB),
	}
}

// Attach registers a database file with the federation — GDMP's
// Objectivity-specific post-processing step after a replica arrives.
func (fed *Federation) Attach(path string) (uint32, error) {
	db, err := Open(path)
	if err != nil {
		return 0, err
	}
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if _, dup := fed.dbs[db.DBID()]; dup {
		db.Close()
		return db.DBID(), fmt.Errorf("%w: db %d", ErrAlreadyAttached, db.DBID())
	}
	fed.dbs[db.DBID()] = path
	fed.open[db.DBID()] = db
	return db.DBID(), nil
}

// Detach removes a database from the federation.
func (fed *Federation) Detach(dbid uint32) error {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if _, ok := fed.dbs[dbid]; !ok {
		return fmt.Errorf("%w: db %d", ErrNotAttached, dbid)
	}
	if db := fed.open[dbid]; db != nil {
		db.Close()
	}
	delete(fed.dbs, dbid)
	delete(fed.open, dbid)
	return nil
}

// Attached reports whether a database is attached.
func (fed *Federation) Attached(dbid uint32) bool {
	fed.mu.RLock()
	defer fed.mu.RUnlock()
	_, ok := fed.dbs[dbid]
	return ok
}

// Databases lists the attached database ids, sorted.
func (fed *Federation) Databases() []uint32 {
	fed.mu.RLock()
	defer fed.mu.RUnlock()
	out := make([]uint32, 0, len(fed.dbs))
	for id := range fed.dbs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Path returns the file path of an attached database — the object-to-file
// catalog lookup of Figure 1.
func (fed *Federation) Path(dbid uint32) (string, error) {
	fed.mu.RLock()
	defer fed.mu.RUnlock()
	p, ok := fed.dbs[dbid]
	if !ok {
		return "", fmt.Errorf("%w: db %d", ErrNotAttached, dbid)
	}
	return p, nil
}

// db returns the open reader for an attached database.
func (fed *Federation) db(dbid uint32) (*DB, error) {
	fed.mu.RLock()
	db := fed.open[dbid]
	fed.mu.RUnlock()
	if db != nil {
		return db, nil
	}
	fed.mu.Lock()
	defer fed.mu.Unlock()
	if db := fed.open[dbid]; db != nil {
		return db, nil
	}
	path, ok := fed.dbs[dbid]
	if !ok {
		return nil, fmt.Errorf("%w: db %d", ErrNotAttached, dbid)
	}
	db, err := Open(path)
	if err != nil {
		return nil, err
	}
	fed.open[dbid] = db
	return db, nil
}

// Lookup loads an object by OID.
func (fed *Federation) Lookup(oid OID) (*Object, error) {
	db, err := fed.db(oid.DB)
	if err != nil {
		return nil, err
	}
	return db.Read(oid.Slot)
}

// Meta returns an object's index entry by OID.
func (fed *Federation) Meta(oid OID) (Meta, error) {
	db, err := fed.db(oid.DB)
	if err != nil {
		return Meta{}, err
	}
	return db.Meta(oid.Slot)
}

// Navigate follows the i-th association of the object — the paper's
// "object-oriented navigation mechanism". It fails with ErrNotAttached if
// the target's database file has not been replicated to this site.
func (fed *Federation) Navigate(oid OID, i int) (*Object, error) {
	m, err := fed.Meta(oid)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(m.Assocs) {
		return nil, fmt.Errorf("objectstore: %v has %d associations, want %d", oid, len(m.Assocs), i)
	}
	return fed.Lookup(m.Assocs[i])
}

// AssociationClosure returns the set of databases (including the starting
// ones) reachable through associations from the given databases, restricted
// to those attached. Unattached databases encountered on the way are
// returned in missing. Replicating the closure together preserves
// navigation at the destination (Section 2.1).
func (fed *Federation) AssociationClosure(start []uint32) (closure, missing []uint32, err error) {
	seen := make(map[uint32]bool)
	missingSet := make(map[uint32]bool)
	queue := append([]uint32(nil), start...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] || missingSet[id] {
			continue
		}
		if !fed.Attached(id) {
			missingSet[id] = true
			continue
		}
		seen[id] = true
		db, err := fed.db(id)
		if err != nil {
			return nil, nil, err
		}
		queue = append(queue, db.ForeignDBs()...)
	}
	for id := range seen {
		closure = append(closure, id)
	}
	for id := range missingSet {
		missing = append(missing, id)
	}
	sort.Slice(closure, func(i, j int) bool { return closure[i] < closure[j] })
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	return closure, missing, nil
}

// FindObjects resolves the application-level request of Figure 1 at site
// scope: the metas of all attached objects of the given type belonging to
// the given events. Events with no local object of that type are simply
// absent from the result (the caller consults the Grid-level index for
// those).
func (fed *Federation) FindObjects(typ string, events []uint64) ([]Meta, error) {
	want := make(map[uint64]bool, len(events))
	for _, ev := range events {
		want[ev] = true
	}
	var out []Meta
	err := fed.Scan(func(m Meta) bool {
		if m.Type == typ && want[m.Event] {
			out = append(out, m)
		}
		return true
	})
	return out, err
}

// Scan calls fn for every object meta in every attached database, in
// database order. fn returning false stops the scan.
func (fed *Federation) Scan(fn func(Meta) bool) error {
	for _, id := range fed.Databases() {
		db, err := fed.db(id)
		if err != nil {
			return err
		}
		for _, m := range db.Metas() {
			if !fn(m) {
				return nil
			}
		}
	}
	return nil
}

// Stats summarizes the federation.
type FederationStats struct {
	Databases int
	Objects   int
	Bytes     int64
}

// Stats walks the attached databases and counts contents.
func (fed *Federation) Stats() (FederationStats, error) {
	st := FederationStats{}
	for _, id := range fed.Databases() {
		db, err := fed.db(id)
		if err != nil {
			return st, err
		}
		st.Databases++
		st.Objects += db.Len()
		st.Bytes += db.TotalBytes()
	}
	return st, nil
}

// Close closes all open database readers (the attachment list is kept).
func (fed *Federation) Close() error {
	fed.mu.Lock()
	defer fed.mu.Unlock()
	var first error
	for id, db := range fed.open {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
		delete(fed.open, id)
	}
	return first
}

// Save writes the federation catalog (dbid -> path) to a file, relative
// paths resolved against the catalog's directory on load. The file is
// replaced atomically and durably: a crash or power cut leaves the old
// catalog or the new one.
func (fed *Federation) Save(path string) error {
	fed.mu.RLock()
	ids := make([]uint32, 0, len(fed.dbs))
	for id := range fed.dbs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteString("gdmp-federation v1\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "%d %s\n", id, strconv.Quote(fed.dbs[id]))
	}
	fed.mu.RUnlock()
	err := durable.WriteAtomic(path, func(f *os.File) error {
		_, err := f.WriteString(b.String())
		return err
	})
	if err != nil {
		return err
	}
	return durable.SyncDir(filepath.Dir(path))
}

// LoadFederation reads a federation catalog and attaches every listed
// database file.
func LoadFederation(path string) (*Federation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "gdmp-federation v1" {
		return nil, errors.New("objectstore: bad federation catalog header")
	}
	fed := NewFederation()
	base := filepath.Dir(path)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		idStr, pathQ, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("objectstore: bad federation line %q", line)
		}
		wantID, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("objectstore: bad federation id %q", idStr)
		}
		p, err := strconv.Unquote(pathQ)
		if err != nil {
			return nil, fmt.Errorf("objectstore: bad federation path %q", pathQ)
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(base, p)
		}
		gotID, err := fed.Attach(p)
		if err != nil {
			return nil, fmt.Errorf("objectstore: attach %s: %w", p, err)
		}
		if gotID != uint32(wantID) {
			return nil, fmt.Errorf("objectstore: catalog says db %d, file %s says %d", wantID, p, gotID)
		}
	}
	return fed, sc.Err()
}
