package replica

import (
	"context"
	"net"

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
)

// Methods lists every RPC method the catalog server exposes.
var Methods = []string{
	MethodRegister, MethodGenerate, MethodLookup, MethodSetAttrs,
	MethodDelete, MethodFiles, MethodQuery, MethodAddReplica,
	MethodRemoveReplica, MethodLocations, MethodCreateCollection,
	MethodDeleteCollection, MethodAddToCollection, MethodRemoveFromColl,
	MethodListCollection, MethodCollections, MethodStats,
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

// Server exposes a Catalog over the Request Manager RPC layer: the paper's
// deployment shape, one central Replica Catalog service per Grid.
type Server struct {
	catalog *Catalog
	rpc     *rpc.Server
}

// NewServer wraps catalog in an authenticated RPC server. The RPC server
// records into the catalog's registry.
func NewServer(catalog *Catalog, cred *gsi.Credential, roots []*gsi.Certificate, acl *gsi.ACL) *Server {
	s := &Server{catalog: catalog, rpc: rpc.NewServer(cred, roots, acl, catalog.reg)}
	s.register()
	return s
}

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
}
