package replica

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/rpc"
)

// TestClientQueryHostileCount: a Query reply's entry count comes from the
// server. Replies that claim more entries than they carry must decode to
// an error without the client allocating for the claim.
func TestClientQueryHostileCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(*rpc.Encoder)
	}{
		{"count only, 2^32-1 claimed", func(e *rpc.Encoder) { e.Uint32(1<<32 - 1) }},
		{"one entry, 2^31 claimed", func(e *rpc.Encoder) {
			e.Uint32(1 << 31)
			e.String("lfn://x/a")
			e.Uint32(0) // no attrs
		}},
		{"one entry claiming 2^32-1 attributes", func(e *rpc.Encoder) {
			e.Uint32(1)
			e.String("lfn://x/a")
			e.Uint32(1<<32 - 1)
		}},
		{"count truncated", func(e *rpc.Encoder) { e.Uint8(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ca := testCA(t)
			roots := []*gsi.Certificate{ca.Certificate()}
			cred, err := ca.Issue("replicad/hostile", time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			acl := gsi.NewACL()
			AllowCatalogUseAll(acl)
			srv := rpc.NewServer(cred, roots, acl)
			srv.Handle(MethodQuery, func(_ context.Context, _ *gsi.Peer, _ *rpc.Decoder, resp *rpc.Encoder) error {
				tc.reply(resp)
				return nil
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			cl := dialTestClient(t, ln.Addr().String())

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			files, err := cl.Query(context.Background(), "(a=b)")
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("hostile reply decoded to %d entries without error", len(files))
			}
			if cost := after.TotalAlloc - before.TotalAlloc; cost >= 1<<20 {
				t.Fatalf("decoding the reply allocated %d bytes", cost)
			}
		})
	}
}
