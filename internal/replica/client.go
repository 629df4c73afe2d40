package replica

import (
	"context"
	"errors"

	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

// Client is the remote interface to a central Replica Catalog server. GDMP
// wraps it in a higher-level service (internal/core) that adds sanity
// checks, search filters, and automatic creation of required entries,
// exactly as the paper's "higher-level object-oriented wrapper to the
// underlying Globus Replica Catalog library".
type Client struct {
	rc *rpc.Client
}

// Dial connects and authenticates to the catalog server at addr.
func Dial(addr string, cred *gsi.Credential, roots []*gsi.Certificate, opts ...rpc.DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, cred, roots, opts...)
}

// DialContext is Dial bound to a context governing connection establishment
// and the security handshake.
func DialContext(ctx context.Context, addr string, cred *gsi.Credential, roots []*gsi.Certificate, opts ...rpc.DialOption) (*Client, error) {
	cl, err := rpc.DialContext(ctx, addr, cred, roots, opts...)
	if err != nil {
		return nil, err
	}
	return &Client{rc: cl}, nil
}

// Close releases the client's sessions.
func (c *Client) Close() error { return c.rc.Close() }

// call is every catalog call. A remote error whose code names a kind of
// catalog error matches that kind under errors.Is and is still the
// *rpc.RemoteError under errors.As.
func (c *Client) call(ctx context.Context, method string, args *rpc.Encoder) (*rpc.Decoder, error) {
	d, err := c.rc.CallContext(ctx, method, args)
	var re *rpc.RemoteError
	if errors.As(err, &re) {
		for _, kind := range []*kindError{ErrExists, ErrNotFound} {
			if re.Code == kind.code {
				return nil, &remoteKind{re, kind}
			}
		}
	}
	return d, err
}

// remoteKind is a catalog error that crossed the wire: it reads as the
// server's message and matches both the remote error and its kind.
type remoteKind struct {
	*rpc.RemoteError
	kind *kindError
}

func (e *remoteKind) Unwrap() error        { return e.RemoteError }
func (e *remoteKind) Is(target error) bool { return target == e.kind }

// Register creates a logical file entry with attributes.
func (c *Client) Register(ctx context.Context, name string, attrs map[string]string) error {
	var e rpc.Encoder
	e.String(name)
	encodeAttrs(&e, attrs)
	_, err := c.call(ctx, MethodRegister, &e)
	return err
}

// GenerateLFN asks the catalog to mint and register a unique logical name.
func (c *Client) GenerateLFN(ctx context.Context, site, base string, attrs map[string]string) (string, error) {
	var e rpc.Encoder
	e.String(site)
	e.String(base)
	encodeAttrs(&e, attrs)
	d, err := c.call(ctx, MethodGenerate, &e)
	if err != nil {
		return "", err
	}
	lfn := d.String()
	return lfn, d.Finish()
}

// Lookup fetches a logical file entry.
func (c *Client) Lookup(ctx context.Context, name string) (*LogicalFile, error) {
	var e rpc.Encoder
	e.String(name)
	d, err := c.call(ctx, MethodLookup, &e)
	if err != nil {
		return nil, err
	}
	attrs := decodeAttrs(d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &LogicalFile{Name: name, Attrs: attrs}, nil
}

// SetAttrs merges attributes into an entry.
func (c *Client) SetAttrs(ctx context.Context, name string, attrs map[string]string) error {
	var e rpc.Encoder
	e.String(name)
	encodeAttrs(&e, attrs)
	_, err := c.call(ctx, MethodSetAttrs, &e)
	return err
}

// Delete removes a logical file entry and its replica locations.
func (c *Client) Delete(ctx context.Context, name string) error {
	var e rpc.Encoder
	e.String(name)
	_, err := c.call(ctx, MethodDelete, &e)
	return err
}

// Files lists all logical file names.
func (c *Client) Files(ctx context.Context) ([]string, error) {
	d, err := c.call(ctx, MethodFiles, nil)
	if err != nil {
		return nil, err
	}
	files := d.StringList()
	return files, d.Finish()
}

// Query evaluates an LDAP-style filter on the server.
func (c *Client) Query(ctx context.Context, filter string) ([]*LogicalFile, error) {
	var e rpc.Encoder
	e.String(filter)
	d, err := c.call(ctx, MethodQuery, &e)
	if err != nil {
		return nil, err
	}
	n := d.Uint32()
	out := make([]*LogicalFile, 0, min(n, 4096)) // cap wire-supplied preallocation
	for i := uint32(0); i < n; i++ {
		name := d.String()
		attrs := decodeAttrs(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		out = append(out, &LogicalFile{Name: name, Attrs: attrs})
	}
	return out, d.Finish()
}

// AddReplica records a physical location for a logical file.
func (c *Client) AddReplica(ctx context.Context, lfn, pfn string) error {
	var e rpc.Encoder
	e.String(lfn)
	e.String(pfn)
	_, err := c.call(ctx, MethodAddReplica, &e)
	return err
}

// RemoveReplica deletes a physical location of a logical file.
func (c *Client) RemoveReplica(ctx context.Context, lfn, pfn string) error {
	var e rpc.Encoder
	e.String(lfn)
	e.String(pfn)
	_, err := c.call(ctx, MethodRemoveReplica, &e)
	return err
}

// Locations returns all physical locations of a logical file.
func (c *Client) Locations(ctx context.Context, lfn string) ([]string, error) {
	var e rpc.Encoder
	e.String(lfn)
	d, err := c.call(ctx, MethodLocations, &e)
	if err != nil {
		return nil, err
	}
	locs := d.StringList()
	return locs, d.Finish()
}

// CreateCollection creates an empty collection.
func (c *Client) CreateCollection(ctx context.Context, name string) error {
	var e rpc.Encoder
	e.String(name)
	_, err := c.call(ctx, MethodCreateCollection, &e)
	return err
}

// DeleteCollection removes a collection (force deletes non-empty ones).
func (c *Client) DeleteCollection(ctx context.Context, name string, force bool) error {
	var e rpc.Encoder
	e.String(name)
	e.Bool(force)
	_, err := c.call(ctx, MethodDeleteCollection, &e)
	return err
}

// AddToCollection inserts a logical file into a collection.
func (c *Client) AddToCollection(ctx context.Context, coll, lfn string) error {
	var e rpc.Encoder
	e.String(coll)
	e.String(lfn)
	_, err := c.call(ctx, MethodAddToCollection, &e)
	return err
}

// RemoveFromCollection removes a logical file from a collection.
func (c *Client) RemoveFromCollection(ctx context.Context, coll, lfn string) error {
	var e rpc.Encoder
	e.String(coll)
	e.String(lfn)
	_, err := c.call(ctx, MethodRemoveFromColl, &e)
	return err
}

// ListCollection returns the members of a collection.
func (c *Client) ListCollection(ctx context.Context, name string) ([]string, error) {
	var e rpc.Encoder
	e.String(name)
	d, err := c.call(ctx, MethodListCollection, &e)
	if err != nil {
		return nil, err
	}
	members := d.StringList()
	return members, d.Finish()
}

// Collections lists all collection names.
func (c *Client) Collections(ctx context.Context) ([]string, error) {
	d, err := c.call(ctx, MethodCollections, nil)
	if err != nil {
		return nil, err
	}
	colls := d.StringList()
	return colls, d.Finish()
}

// Stats returns catalog entry counts.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	d, err := c.call(ctx, MethodStats, nil)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{
		Files:       int(d.Uint64()),
		Replicas:    int(d.Uint64()),
		Collections: int(d.Uint64()),
	}
	return st, d.Finish()
}
