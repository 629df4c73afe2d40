package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"gdmp/internal/replica"
)

// rcService is GDMP's Replica Catalog service: the paper's "higher-level
// object-oriented wrapper to the underlying Globus Replica Catalog library"
// adding search filters, sanity checks on input parameters, and automatic
// creation of required entries (Section 4.2). The catalog client's plain
// calls are promoted unchanged; a broken session is rpc.Client's to replace.
type rcService struct{ *replica.Client }

// sanity checks applied to every name that enters the catalog.
func checkCatalogName(kind, name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("core: empty %s name", kind)
	}
	if strings.ContainsAny(name, " \t\r\n") {
		return fmt.Errorf("core: %s name %q contains whitespace", kind, name)
	}
	return nil
}

// publishFile registers a logical file (verifying global uniqueness) with
// its metadata and first physical location, creating the collection if
// needed — one GDMP publish step (Section 4.2: files and their
// meta-information are added to the replica catalog).
func (rc rcService) publishFile(ctx context.Context, lfn string, attrs map[string]string, pfn PFN, collection string) error {
	if err := checkCatalogName("logical file", lfn); err != nil {
		return err
	}
	if err := rc.Register(ctx, lfn, attrs); err != nil {
		if errors.Is(err, replica.ErrExists) {
			return fmt.Errorf("core: logical file name %q already taken (the catalog enforces a global namespace): %w", lfn, err)
		}
		return err
	}
	if err := rc.AddReplica(ctx, lfn, pfn.String()); err != nil {
		return err
	}
	if collection != "" {
		if err := rc.ensureCollection(ctx, collection); err != nil {
			return err
		}
		if err := rc.AddToCollection(ctx, collection, lfn); err != nil {
			return err
		}
	}
	return nil
}

// addReplica records an additional physical location for an existing file.
func (rc rcService) addReplica(ctx context.Context, lfn string, pfn PFN) error {
	err := rc.AddReplica(ctx, lfn, pfn.String())
	if err != nil && errors.Is(err, replica.ErrExists) {
		return nil // idempotent: replica already recorded
	}
	return err
}

// ensureCollection creates the collection if it does not exist yet —
// "automatic creation of required entries if they do not already exist".
func (rc rcService) ensureCollection(ctx context.Context, name string) error {
	if err := checkCatalogName("collection", name); err != nil {
		return err
	}
	err := rc.CreateCollection(ctx, name)
	if err != nil && errors.Is(err, replica.ErrExists) {
		return nil
	}
	return err
}

// locations returns the parsed physical locations of a logical file.
func (rc rcService) locations(ctx context.Context, lfn string) ([]PFN, error) {
	raw, err := rc.Locations(ctx, lfn)
	if err != nil {
		return nil, err
	}
	pfns := make([]PFN, 0, len(raw))
	for _, s := range raw {
		p, err := ParsePFN(s)
		if err != nil {
			// Tolerate foreign PFN schemes in a shared catalog; skip them.
			continue
		}
		pfns = append(pfns, p)
	}
	return pfns, nil
}
