package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"gdmp/internal/objectstore"
)

// FileType is the plug-in interface that makes GDMP 2.0 "handle file
// replication independent of the file format" (Section 4.1): replication
// runs pre-processing before the transfer and post-processing after it,
// both file-type specific and possibly no-ops.
type FileType interface {
	// Name is the identifier stored in the replica catalog's filetype
	// attribute, e.g. "flat" or "objectivity".
	Name() string

	// PreProcess prepares the destination site before the file arrives
	// (e.g. creating an Objectivity federation, introducing schema).
	PreProcess(site *Site, lfn string) error

	// PostProcess integrates the arrived file into local systems (e.g.
	// attaching a database file to the local federation's file catalog).
	PostProcess(site *Site, lfn, localPath string) error
}

// AttrProvider is an optional FileType extension: a type implementing it
// contributes extra replica-catalog attributes at publish time (e.g. the
// database id and associated databases of an object database file).
type AttrProvider interface {
	PublishAttrs(localPath string) (map[string]string, error)
}

// Errors from the file-type registry.
var (
	ErrUnknownFileType = errors.New("core: unknown file type")
	ErrDuplicateType   = errors.New("core: file type already registered")
)

// typeRegistry holds a site's file-type plug-ins.
type typeRegistry struct {
	mu    sync.RWMutex
	types map[string]FileType
}

func newTypeRegistry() *typeRegistry {
	r := &typeRegistry{types: make(map[string]FileType)}
	// Every site understands flat files out of the box.
	r.types[FlatType{}.Name()] = FlatType{}
	return r
}

func (r *typeRegistry) register(ft FileType) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.types[ft.Name()]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateType, ft.Name())
	}
	r.types[ft.Name()] = ft
	return nil
}

// lookup returns the plug-in registered under name; no name is flat.
func (r *typeRegistry) lookup(name string) (FileType, error) {
	if name == "" {
		return FlatType{}, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	ft, ok := r.types[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFileType, name)
	}
	return ft, nil
}

// FlatType replicates plain files with no format-specific steps — the
// paper's "flat files with particular internal structure" degenerate case.
type FlatType struct{}

// Name implements FileType.
func (FlatType) Name() string { return "flat" }

// PreProcess implements FileType (no-op).
func (FlatType) PreProcess(*Site, string) error { return nil }

// PostProcess implements FileType (no-op).
func (FlatType) PostProcess(*Site, string, string) error { return nil }

// ObjectivityType replicates object database files: post-processing
// attaches the arrived file to the site's local federation, "and thus
// insert[s] it to an internal file catalog" (Section 4.1).
type ObjectivityType struct{}

// Name implements FileType.
func (ObjectivityType) Name() string { return "objectivity" }

// PreProcess verifies the destination site runs a federation, the analogue
// of "creating an Objectivity federation at the destination site".
func (ObjectivityType) PreProcess(site *Site, lfn string) error {
	if site.federation == nil {
		return fmt.Errorf("core: site %s has no object federation for %s", site.Name(), lfn)
	}
	return nil
}

// PostProcess attaches the database file to the local federation.
func (ObjectivityType) PostProcess(site *Site, lfn, localPath string) error {
	if site.federation == nil {
		return fmt.Errorf("core: site %s has no object federation", site.Name())
	}
	_, err := site.federation.Attach(localPath)
	if errors.Is(err, objectstore.ErrAlreadyAttached) {
		return nil // idempotent: re-replication of the same database
	}
	return err
}

// PublishAttrs records the database id and, crucially, the foreign
// databases its objects reference: Section 2.1's "associated files" that
// must be replicated together to keep navigation intact. The attributes
// let any consumer compute the closure from the replica catalog alone.
func (ObjectivityType) PublishAttrs(localPath string) (map[string]string, error) {
	db, err := objectstore.Open(localPath)
	if err != nil {
		return nil, fmt.Errorf("core: inspect object database: %w", err)
	}
	defer db.Close()
	attrs := map[string]string{
		AttrDBID:    fmt.Sprint(db.DBID()),
		attrObjects: fmt.Sprint(db.Len()),
	}
	if foreign := db.ForeignDBs(); len(foreign) > 0 {
		parts := make([]string, len(foreign))
		for i, id := range foreign {
			parts[i] = fmt.Sprint(id)
		}
		attrs[AttrAssocDBs] = strings.Join(parts, ",")
	}
	return attrs, nil
}
