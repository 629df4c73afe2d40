package rpc

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRequestFrame feeds the server's request decoder the bytes an
// authenticated peer controls. Seeds are client frames, whole and short by
// one byte; `make fuzz-smoke` mutates them.
func FuzzRequestFrame(f *testing.F) {
	var args Encoder
	args.String("lfn://cms/run7/events.db")
	args.Uint64(1 << 20)
	for _, req := range []request{
		{method: "gdmp.ping"},
		{method: "gdmp.metrics", budget: 2_500_000},
		{method: "rc.lookup", args: args.Bytes(), budget: 30_000_000, attempt: 3},
	} {
		frame := req.encode()
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var req request
		var err error
		// The decode copies the arguments actually present; past that it
		// must allocate nothing a claimed length asks for.
		if got := allocated(func() { req, err = decodeRequest(frame) }); got >= 64<<10+uint64(len(frame)) {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes", len(frame), got)
		}
		if err != nil {
			return
		}
		again := req.encode()
		if !bytes.Equal(again, frame) {
			t.Fatalf("re-encoding %+v gave %x, decoded from %x", req, again, frame)
		}
		if req2, err := decodeRequest(again); err != nil || !reflect.DeepEqual(req2, req) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", req, req2, err)
		}
	})
}
