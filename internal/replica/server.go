package replica

import (
	"context"
	"net"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

// RPC method names served by the catalog. Each doubles as the ACL operation
// a caller must hold; OpAll grants the full set.
const (
	MethodRegister         = "rc.register"
	MethodGenerate         = "rc.generate"
	MethodLookup           = "rc.lookup"
	MethodSetAttrs         = "rc.setattrs"
	MethodDelete           = "rc.delete"
	MethodFiles            = "rc.files"
	MethodQuery            = "rc.query"
	MethodAddReplica       = "rc.add_replica"
	MethodRemoveReplica    = "rc.remove_replica"
	MethodLocations        = "rc.locations"
	MethodCreateCollection = "rc.create_collection"
	MethodDeleteCollection = "rc.delete_collection"
	MethodAddToCollection  = "rc.add_to_collection"
	MethodRemoveFromColl   = "rc.remove_from_collection"
	MethodListCollection   = "rc.list_collection"
	MethodCollections      = "rc.collections"
	MethodStats            = "rc.stats"

	// RLI tier: sites push bloom digests of their LRC contents and query
	// which sites might hold an LFN (see rli.go).
	MethodRLIPush  = "rli.push"
	MethodRLIWhich = "rli.which"
	MethodRLISites = "rli.sites"
)

// Methods lists every RPC method the catalog server exposes.
var Methods = []string{
	MethodRegister, MethodGenerate, MethodLookup, MethodSetAttrs,
	MethodDelete, MethodFiles, MethodQuery, MethodAddReplica,
	MethodRemoveReplica, MethodLocations, MethodCreateCollection,
	MethodDeleteCollection, MethodAddToCollection, MethodRemoveFromColl,
	MethodListCollection, MethodCollections, MethodStats,
	MethodRLIPush, MethodRLIWhich, MethodRLISites,
}

// AllowCatalogUseAll grants every authenticated identity every catalog
// operation (typical for a collaboration-internal catalog).
func AllowCatalogUseAll(acl *gsi.ACL) {
	for _, m := range Methods {
		acl.AllowAll(gsi.Operation(m))
	}
}

// encodeAttrs / decodeAttrs move attribute maps across the wire, into
// the WAL and into catalog snapshots. Pairs go in key order, so a
// snapshot's bytes depend only on the catalog's contents.
func encodeAttrs(e *rpc.Encoder, attrs map[string]string) {
	e.Uint32(uint32(len(attrs)))
	for _, k := range sortedKeys(attrs) {
		e.String(k)
		e.String(attrs[k])
	}
}

func decodeAttrs(d *rpc.Decoder) map[string]string {
	n := d.Uint32()
	attrs := make(map[string]string, min(n, 64)) // cap wire-supplied preallocation
	for i := uint32(0); i < n; i++ {
		k := d.String()
		v := d.String()
		if d.Err() != nil {
			return nil
		}
		attrs[k] = v
	}
	return attrs
}

// Server exposes a Catalog over the Request Manager RPC layer, together
// with the RLI index tier. The paper's deployment shape — one central
// Replica Catalog service per Grid — still works, but the served catalog
// is now just the central site's LRC, and the co-hosted RLI routes
// lookups to every other site's LRC via pushed digests.
type Server struct {
	catalog *Catalog
	rli     *RLI
	rpc     *rpc.Server
}

// NewServer wraps catalog in an authenticated RPC server, co-hosting an
// RLI with the default soft-state TTL. Both record into the catalog's
// registry.
func NewServer(catalog *Catalog, cred *gsi.Credential, roots []*gsi.Certificate, acl *gsi.ACL) *Server {
	return NewServerWithRLI(catalog, NewRLI(0, catalog.reg), cred, roots, acl)
}

// NewServerWithRLI is NewServer with a caller-configured index tier
// (custom TTL or metrics registry). The RPC server records into the
// catalog's registry.
func NewServerWithRLI(catalog *Catalog, rli *RLI, cred *gsi.Credential, roots []*gsi.Certificate, acl *gsi.ACL) *Server {
	s := &Server{catalog: catalog, rli: rli, rpc: rpc.NewServer(cred, roots, acl, catalog.reg)}
	s.register()
	return s
}

// RLI returns the co-hosted index tier.
func (s *Server) RLI() *RLI { return s.rli }

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error { return s.rpc.Serve(ln) }

// Close shuts the server down.
func (s *Server) Close() error { return s.rpc.Close() }

func (s *Server) register() {
	s.rpc.Handle(MethodRegister, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		attrs := decodeAttrs(args)
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.Register(name, attrs)
	})
	s.rpc.Handle(MethodGenerate, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		site := args.String()
		base := args.String()
		attrs := decodeAttrs(args)
		if err := args.Finish(); err != nil {
			return err
		}
		lfn, err := s.catalog.GenerateLFN(site, base, attrs)
		if err != nil {
			return err
		}
		resp.String(lfn)
		return nil
	})
	s.rpc.Handle(MethodLookup, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		// Copy-free read path: encode straight from the live entry under
		// the shard read lock instead of cloning it first.
		return s.catalog.ReadEntry(name, func(f *LogicalFile) {
			encodeAttrs(resp, f.Attrs)
		})
	})
	s.rpc.Handle(MethodSetAttrs, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		attrs := decodeAttrs(args)
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.SetAttrs(name, attrs)
	})
	s.rpc.Handle(MethodDelete, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.Delete(name)
	})
	s.rpc.Handle(MethodFiles, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		resp.StringList(s.catalog.Files())
		return nil
	})
	s.rpc.Handle(MethodQuery, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		filter := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		files, err := s.catalog.Query(filter)
		if err != nil {
			return err
		}
		resp.Uint32(uint32(len(files)))
		for _, f := range files {
			resp.String(f.Name)
			encodeAttrs(resp, f.Attrs)
		}
		return nil
	})
	s.rpc.Handle(MethodAddReplica, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		lfn := args.String()
		pfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.AddReplica(lfn, pfn)
	})
	s.rpc.Handle(MethodRemoveReplica, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		lfn := args.String()
		pfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.RemoveReplica(lfn, pfn)
	})
	s.rpc.Handle(MethodLocations, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		lfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		locs, err := s.catalog.Locations(lfn)
		if err != nil {
			return err
		}
		resp.StringList(locs)
		return nil
	})
	s.rpc.Handle(MethodCreateCollection, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.CreateCollection(name)
	})
	s.rpc.Handle(MethodDeleteCollection, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		force := args.Bool()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.DeleteCollection(name, force)
	})
	s.rpc.Handle(MethodAddToCollection, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		coll := args.String()
		lfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.AddToCollection(coll, lfn)
	})
	s.rpc.Handle(MethodRemoveFromColl, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		coll := args.String()
		lfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		return s.catalog.RemoveFromCollection(coll, lfn)
	})
	s.rpc.Handle(MethodListCollection, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		name := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		members, err := s.catalog.ListCollection(name)
		if err != nil {
			return err
		}
		resp.StringList(members)
		return nil
	})
	s.rpc.Handle(MethodCollections, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		resp.StringList(s.catalog.Collections())
		return nil
	})
	s.rpc.Handle(MethodStats, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		st := s.catalog.Stats()
		resp.Uint64(uint64(st.Files))
		resp.Uint64(uint64(st.Replicas))
		resp.Uint64(uint64(st.Collections))
		return nil
	})
	s.rpc.Handle(MethodRLIPush, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		site := args.String()
		addr := args.String()
		gen := args.Uint64()
		blob := args.Bytes32()
		ttlMs := args.Int64()
		if err := args.Finish(); err != nil {
			return err
		}
		filter, err := UnmarshalBloom(blob)
		if err != nil {
			return err
		}
		outcome, idxGen := s.rli.Update(site, addr, gen, filter, time.Duration(ttlMs)*time.Millisecond)
		resp.String(outcome)
		// A stale-rejected pusher adopts the indexed generation so its next
		// push supersedes the stale entry (restart convergence).
		resp.Uint64(idxGen)
		return nil
	})
	s.rpc.Handle(MethodRLIWhich, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		lfn := args.String()
		if err := args.Finish(); err != nil {
			return err
		}
		sites := s.rli.MightHold(lfn)
		resp.Uint32(uint32(len(sites)))
		for _, st := range sites {
			resp.String(st.Name)
			resp.String(st.Addr)
		}
		for _, st := range sites {
			resp.Uint64(st.Gen)
		}
		return nil
	})
	s.rpc.Handle(MethodRLISites, func(_ context.Context, _ *gsi.Peer, args *rpc.Decoder, resp *rpc.Encoder) error {
		if err := args.Finish(); err != nil {
			return err
		}
		sites := s.rli.Sites()
		resp.Uint32(uint32(len(sites)))
		for _, st := range sites {
			resp.String(st.Name)
			resp.String(st.Addr)
			resp.Uint64(st.Gen)
			resp.Uint64(st.Count)
			resp.Int64(st.ExpiresIn.Milliseconds())
		}
		return nil
	})
}
