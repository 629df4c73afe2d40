package gridftp

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"testing/quick"
)

func TestBlockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("block payload bytes")
	if err := writeBlock(&buf, flagEOD, 123456789, payload); err != nil {
		t.Fatal(err)
	}
	flags, off, got, err := readBlock(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flags != flagEOD || off != 123456789 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = flags %x, off %d, %q", flags, off, got)
	}
}

// writeCounter is a data connection that keeps what is written to it and
// counts the Write calls: each is a syscall, and under TCP_NODELAY a
// segment of its own.
type writeCounter struct {
	net.Conn
	sent   bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.sent.Write(p)
}

// TestSendBlocksOneWritePerBlock: sendBlocks hands each block's header and
// payload to the connection as one Write, and the bare end-of-data block as
// one more, so a stream of n blocks costs n+1 writes; the blocks it writes
// still read back to the source.
func TestSendBlocksOneWritePerBlock(t *testing.T) {
	src := make([]byte, 300_000)
	rand.New(rand.NewSource(5)).Read(src)
	const blockSize = 64 << 10
	ranges := Range{0, int64(len(src))}.split(2)
	conns := []*writeCounter{{}, {}}
	if _, err := sendBlocks([]net.Conn{conns[0], conns[1]}, bytes.NewReader(src), ranges, blockSize, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	for i, c := range conns {
		if blocks := int((ranges[i].Len() + blockSize - 1) / blockSize); c.writes != blocks+1 {
			t.Errorf("stream %d: %d writes for %d blocks, want %d", i, c.writes, blocks, blocks+1)
		}
		for {
			flags, off, payload, err := readBlock(&c.sent, nil)
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
			copy(got[off:], payload)
			if flags&flagEOD != 0 {
				break
			}
		}
	}
	if !bytes.Equal(got, src) {
		t.Fatal("the blocks sent do not read back to the source")
	}
}

func TestBlockPropertyRoundTrip(t *testing.T) {
	f := func(flags byte, off int64, payload []byte) bool {
		if off < 0 {
			off = -off
		}
		var buf bytes.Buffer
		if err := writeBlock(&buf, flags, off, payload); err != nil {
			return false
		}
		gf, goff, gp, err := readBlock(&buf, nil)
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return gf == flags && goff == off && len(gp) == 0
		}
		return gf == flags && goff == off && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBlockBufferReuse(t *testing.T) {
	var buf bytes.Buffer
	writeBlock(&buf, 0, 0, bytes.Repeat([]byte{1}, 100))
	writeBlock(&buf, 0, 100, bytes.Repeat([]byte{2}, 50))
	scratch := make([]byte, 200)
	_, _, p1, err := readBlock(&buf, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &scratch[0] {
		t.Fatal("large scratch buffer not reused")
	}
	_, _, p2, err := readBlock(&buf, scratch)
	if err != nil || len(p2) != 50 || p2[0] != 2 {
		t.Fatalf("second block = %d bytes, %v", len(p2), err)
	}
}

func TestReadBlockTruncatedAndOversized(t *testing.T) {
	// Truncated header.
	if _, _, _, err := readBlock(bytes.NewReader([]byte{1, 2, 3}), nil); err == nil {
		t.Error("truncated header accepted")
	}
	// Header claiming more payload than present.
	var buf bytes.Buffer
	writeBlock(&buf, 0, 0, []byte("full payload"))
	short := buf.Bytes()[:buf.Len()-4]
	if _, _, _, err := readBlock(bytes.NewReader(short), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload: %v", err)
	}
	// Absurd length field.
	hdr := make([]byte, blockHeaderLen)
	hdr[9], hdr[10], hdr[11], hdr[12] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, _, err := readBlock(bytes.NewReader(hdr), nil); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestControlReplyParsing(t *testing.T) {
	mk := func(in string) *controlConn {
		return newControlConn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(in), io.Discard})
	}
	code, text, err := mk("226 transfer complete\r\n").readReply()
	if err != nil || code != 226 || text != "transfer complete" {
		t.Fatalf("parsed %d %q, %v", code, text, err)
	}
	for _, bad := range []string{"22\r\n", "abc hello\r\n", "2x6 text\r\n", "226-no space\r\n"} {
		if _, _, err := mk(bad).readReply(); err == nil {
			t.Errorf("malformed reply %q accepted", bad)
		}
	}
}

func TestTokensAreUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		tok, err := newToken()
		if err != nil {
			t.Fatal(err)
		}
		if len(tok) != 2*tokenLen {
			t.Fatalf("token length %d", len(tok))
		}
		if seen[tok] {
			t.Fatal("token repeated")
		}
		seen[tok] = true
	}
}

func TestRangeSetUnderConcurrentishUse(t *testing.T) {
	// Simulate the receive pattern: blocks land in random order from
	// multiple streams; the set must converge to complete.
	rng := rand.New(rand.NewSource(42))
	const total = 1 << 20
	var rs RangeSet
	var blocks []Range
	for pos := int64(0); pos < total; {
		n := int64(rng.Intn(64*1024) + 1)
		if pos+n > total {
			n = total - pos
		}
		blocks = append(blocks, Range{pos, pos + n})
		pos += n
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	for _, blk := range blocks {
		rs.Add(blk.Start, blk.End)
	}
	if !rs.Complete(total) {
		t.Fatalf("incomplete after all blocks: %s", rs.String())
	}
}
