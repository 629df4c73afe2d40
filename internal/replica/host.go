package replica

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"gdmp/internal/gsi"
)

// compactEvery is how often a Host asks its store whether the WAL has
// grown past the compaction threshold (Store.MaybeCompact decides).
const compactEvery = time.Minute

// HostConfig describes one hosted catalog service.
type HostConfig struct {
	// Listen is the "host:port" the catalog server binds.
	Listen string
	// StateDir holds the journaled store (created if needed); empty keeps
	// the catalog in memory only.
	StateDir string
	// Shards is the catalog's hash-partition count (see Options.Shards).
	Shards int

	Cred       *gsi.Credential
	TrustRoots []*gsi.Certificate
	ACL        *gsi.ACL

	// Logger receives recovery, compaction and shutdown lines.
	Logger *log.Logger
}

// Host is a running catalog service: the sharded catalog, its journaled
// store, the authenticated server and the compaction loop, all recording
// into the catalog's registry. replicad is one Host.
type Host struct {
	cfg   HostConfig
	ln    net.Listener
	srv   *Server
	store *Store // nil without StateDir

	served   chan struct{} // closed when Serve returns
	serveErr error         // valid once served is closed
	loopDone chan struct{} // closed when the compaction loop returns
}

// StartHost recovers the catalog from cfg.StateDir, binds cfg.Listen and
// serves until Close. The catalog is fully recovered before the listener
// opens, so a client that connects sees every acknowledged mutation.
func StartHost(cfg HostConfig) (*Host, error) {
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	catalog := New(Options{Shards: cfg.Shards})
	h := &Host{cfg: cfg, served: make(chan struct{}), loopDone: make(chan struct{})}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, err
		}
		store, err := OpenStore(cfg.StateDir, catalog, StoreOptions{Registry: catalog.reg})
		if err != nil {
			return nil, fmt.Errorf("open catalog store: %w", err)
		}
		h.store = store
		st := catalog.Stats()
		cfg.Logger.Printf("replica catalog: recovered %s (%d files, %d replicas, %d collections)",
			cfg.StateDir, st.Files, st.Replicas, st.Collections)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		if h.store != nil {
			h.store.Close()
		}
		return nil, err
	}
	h.ln = ln
	h.srv = NewServer(catalog, cfg.Cred, cfg.TrustRoots, cfg.ACL)
	cfg.Logger.Printf("replica catalog %s listening on %s (%d shards)",
		cfg.Cred.Identity(), ln.Addr(), catalog.ShardCount())
	go func() {
		h.serveErr = h.srv.Serve(ln)
		close(h.served)
	}()
	go h.compactLoop()
	return h, nil
}

// compactLoop runs for as long as the server serves.
func (h *Host) compactLoop() {
	defer close(h.loopDone)
	if h.store == nil {
		return
	}
	t := time.NewTicker(compactEvery)
	defer t.Stop()
	for {
		select {
		case <-h.served:
			return
		case <-t.C:
			if _, err := h.store.MaybeCompact(); err != nil {
				h.cfg.Logger.Printf("replica catalog: compact: %v", err)
			}
		}
	}
}

// Addr is the address the catalog server is bound to.
func (h *Host) Addr() net.Addr { return h.ln.Addr() }

// Done is closed once the server has stopped serving: after Close, or
// before it if the listener failed, in which case Close reports why.
func (h *Host) Done() <-chan struct{} { return h.served }

// Close stops the server, joins the compaction loop — so its compaction
// can never overlap the final one — then compacts the store once more,
// so the next start replays nothing, and closes it. It returns the
// server's own failure, if that is what ended the service, else the
// store's.
func (h *Host) Close() error {
	var err error
	select {
	case <-h.served:
		err = h.serveErr
	default:
	}
	h.srv.Close()
	<-h.served
	<-h.loopDone
	if h.store != nil {
		if cerr := h.store.Close(); cerr != nil {
			if err == nil {
				err = fmt.Errorf("close catalog store: %w", cerr)
			}
		} else {
			h.cfg.Logger.Printf("replica catalog: compacted into %s", h.cfg.StateDir)
		}
	}
	return err
}
