package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"gdmp/internal/replica"
)

// rcService is GDMP's Replica Catalog service: the paper's "higher-level
// object-oriented wrapper to the underlying Globus Replica Catalog library"
// adding search filters, sanity checks on input parameters, and automatic
// creation of required entries (Section 4.2).
type rcService struct {
	mu     sync.Mutex
	client *replica.Client
	// dial opens a new catalog session; once closed is set (the site is
	// shutting down) cl no longer redials.
	dial   func(context.Context) (*replica.Client, error)
	closed bool
}

// cl returns the catalog client, first redialing one that has latched
// closed (the catalog restarted, the connection broke, or a caller's
// context was canceled mid-call): a lost session costs the calls that were
// in flight when it broke, and no more. Every catalog call comes through
// here. A failed redial leaves the latched client, so that call fails and
// the next one dials again.
func (rc *rcService) cl(ctx context.Context) *replica.Client {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.client.Closed() && !rc.closed {
		if cl, err := rc.dial(ctx); err == nil {
			rc.client = cl
		}
	}
	return rc.client
}

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
func (rc *rcService) publishFile(ctx context.Context, lfn string, attrs map[string]string, pfn PFN, collection string) error {
	if err := checkCatalogName("logical file", lfn); err != nil {
		return err
	}
	if err := rc.cl(ctx).Register(ctx, lfn, attrs); err != nil {
		if errors.Is(err, replica.ErrExists) {
			return fmt.Errorf("core: logical file name %q already taken (the catalog enforces a global namespace): %w", lfn, err)
		}
		return err
	}
	if err := rc.cl(ctx).AddReplica(ctx, lfn, pfn.String()); err != nil {
		return err
	}
	if collection != "" {
		if err := rc.ensureCollection(ctx, collection); err != nil {
			return err
		}
		if err := rc.cl(ctx).AddToCollection(ctx, collection, lfn); err != nil {
			return err
		}
	}
	return nil
}

// addReplica records an additional physical location for an existing file.
func (rc *rcService) addReplica(ctx context.Context, lfn string, pfn PFN) error {
	err := rc.cl(ctx).AddReplica(ctx, lfn, pfn.String())
	if err != nil && errors.Is(err, replica.ErrExists) {
		return nil // idempotent: replica already recorded
	}
	return err
}

// removeReplica drops one physical location.
func (rc *rcService) removeReplica(ctx context.Context, lfn string, pfn PFN) error {
	return rc.cl(ctx).RemoveReplica(ctx, lfn, pfn.String())
}

// ensureCollection creates the collection if it does not exist yet —
// "automatic creation of required entries if they do not already exist".
func (rc *rcService) ensureCollection(ctx context.Context, name string) error {
	if err := checkCatalogName("collection", name); err != nil {
		return err
	}
	err := rc.cl(ctx).CreateCollection(ctx, name)
	if err != nil && errors.Is(err, replica.ErrExists) {
		return nil
	}
	return err
}

// locations returns the parsed physical locations of a logical file.
func (rc *rcService) locations(ctx context.Context, lfn string) ([]PFN, error) {
	raw, err := rc.cl(ctx).Locations(ctx, lfn)
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

// lookup fetches a file entry's attributes.
func (rc *rcService) lookup(ctx context.Context, lfn string) (*replica.LogicalFile, error) {
	return rc.cl(ctx).Lookup(ctx, lfn)
}

// listCollection returns the member LFNs of a collection.
func (rc *rcService) listCollection(ctx context.Context, name string) ([]string, error) {
	return rc.cl(ctx).ListCollection(ctx, name)
}

// setAttrs merges attributes into an entry.
func (rc *rcService) setAttrs(ctx context.Context, lfn string, attrs map[string]string) error {
	return rc.cl(ctx).SetAttrs(ctx, lfn, attrs)
}

// query runs a filter search, "to obtain the exact information that they
// require" (Section 4.2).
func (rc *rcService) query(ctx context.Context, filter string) ([]*replica.LogicalFile, error) {
	return rc.cl(ctx).Query(ctx, filter)
}

// pushDigest forwards a site's bloom digest to the RLI tier co-hosted
// with the catalog server.
func (rc *rcService) pushDigest(ctx context.Context, site, addr string, gen uint64, b *replica.Bloom, ttl time.Duration) (string, uint64, error) {
	return rc.cl(ctx).PushDigest(ctx, site, addr, gen, b, ttl)
}

// which asks the RLI which sites' LRCs might hold the LFN.
func (rc *rcService) which(ctx context.Context, lfn string) ([]replica.Site, error) {
	return rc.cl(ctx).Which(ctx, lfn)
}

// deleteFile removes a logical file entry with all its locations.
func (rc *rcService) deleteFile(ctx context.Context, lfn string) error {
	return rc.cl(ctx).Delete(ctx, lfn)
}

func (rc *rcService) close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.closed = true
	return rc.client.Close()
}
