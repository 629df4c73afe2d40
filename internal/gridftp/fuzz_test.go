package gridftp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// The parsers of bytes a GridFTP peer controls: the extended-block
// receiver on the data channels, the reply reader on the client's control
// channel and the argument parser on the server's. Seeds run under plain
// `go test`; `make fuzz-smoke` mutates them.

// byteConn is a data connection whose peer has already sent everything.
type byteConn struct {
	net.Conn // never reached: the receiver only reads
	r        *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// windowWriter fails the write, and the test, on anything the receiver
// should have refused.
type windowWriter struct {
	t      *testing.T
	window Range
}

func (w windowWriter) WriteAt(p []byte, off int64) (int, error) {
	if n := int64(len(p)); off < w.window.Start || off > w.window.End || n > w.window.End-off {
		w.t.Errorf("write [%d,+%d) outside window %+v", off, n, w.window)
		return 0, fmt.Errorf("outside window")
	}
	if len(p) > 16<<20 {
		w.t.Errorf("block of %d bytes exceeds the 16 MiB cap", len(p))
	}
	return len(p), nil
}

func FuzzRecvBlocks(f *testing.F) {
	blocks := func(bs ...func(*bytes.Buffer)) []byte {
		var b bytes.Buffer
		for _, add := range bs {
			add(&b)
		}
		return b.Bytes()
	}
	blk := func(flags byte, off int64, n int) func(*bytes.Buffer) {
		return func(b *bytes.Buffer) { writeBlock(b, flags, off, make([]byte, n)) }
	}
	f.Add(blocks(blk(0, 100, 50), blk(flagEOD, 150, 0)), int64(100), int64(100))
	f.Add(blocks(blk(flagEOD, 0, 10)), int64(0), int64(10))
	f.Add(blocks(blk(0, -1, 10), blk(flagEOD, 0, 0)), int64(0), int64(1<<40))
	f.Add(blocks(blk(0, 1<<62, 10)), int64(0), int64(1<<62))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, int64(0), int64(10)) // 4 GiB length field
	f.Add([]byte{1, 2, 3}, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, stream []byte, start, length int64) {
		if start < 0 || length < 0 || start+length < start {
			return // commands never name such a window
		}
		window := Range{start, start + length}
		per, err := recvBlocks([]net.Conn{byteConn{r: bytes.NewReader(stream)}}, windowWriter{t, window}, window, nil)
		if len(per) != 1 || per[0] < 0 || per[0] > int64(len(stream)) {
			t.Fatalf("moved %v bytes from a %d-byte stream (err %v)", per, len(stream), err)
		}
	})
}

func FuzzReadReply(f *testing.F) {
	for _, s := range []string{
		"226 transfer complete\r\n",
		"150 opening 4 streams size=1234567\r\n",
		"150 opening -3 streams size=x\r\n",
		"150 opening 99999999999999999999 streams\r\n",
		"112 500 1000\n",
		"22\r\n", "2x6 text\r\n", "226-no space\r\n", "", "\r\n",
		"226 " + strings.Repeat("x", maxLineLen-6) + "\r\n", // the longest line accepted
		strings.Repeat("x", maxLineLen+1),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var code int
		var text string
		var err error
		// Bounded by maxLineLen, not by the input: the session's two
		// buffers, the line and an error quoting its start.
		if got := allocated(func() {
			ctl := newControlConn(struct {
				io.Reader
				io.Writer
			}{strings.NewReader(in), io.Discard})
			code, text, err = ctl.readReply()
		}); got >= 64<<10 {
			t.Fatalf("reading a reply from %d bytes allocated %d bytes", len(in), got)
		}
		if err != nil {
			return
		}
		if code < 0 || code > 999 || strings.Contains(text, "\n") {
			t.Fatalf("readReply(%q) = %d %q", in, code, text)
		}
		if streams, err := parse150(text); err == nil && (streams < 1 || streams > MaxParallelism) {
			t.Fatalf("parse150(%q) = %d streams", text, streams)
		}
	})
}

func FuzzTransferArgs(f *testing.F) {
	for _, s := range []string{
		"0 10 run 1/f.db", "5 x.db", "10", "-1 10 f.db", "+3 4 f", "0 0 ",
		"99999999999999999999 1 f", " 1 2 f", "1  2 f", "",
	} {
		f.Add(s, int64(7), int64(1<<40), "run 1/f.db")
	}
	f.Fuzz(func(t *testing.T, args string, off, length int64, path string) {
		// A hostile line: whatever it parses to holds no negative field, at a
		// bounded cost.
		var o, l int64
		var p string
		var ok bool
		if got := allocated(func() { p, ok = transferArgs(args, &o, &l) }); got >= 64<<10 {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(args), got)
		}
		if ok && (o < 0 || l < 0 || len(p) > len(args)) {
			t.Fatalf("transferArgs(%q) = %d %d %q", args, o, l, p)
		}
		// A line the client writes: any path sendLine lets through comes back
		// verbatim, spaces and all, with its range.
		if off < 0 || length < 0 || strings.ContainsAny(path, "\r\n") {
			return
		}
		line := fmt.Sprintf("%d %d %s", off, length, path)
		if p, ok = transferArgs(line, &o, &l); !ok || o != off || l != length || p != path {
			t.Fatalf("transferArgs(%q) = %d %d %q %v, want %d %d %q", line, o, l, p, ok, off, length, path)
		}
	})
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
