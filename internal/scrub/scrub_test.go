package scrub

import (
	"context"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func entryNames(es []Entry) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.LFN)
	}
	return out
}

func TestCompare(t *testing.T) {
	local := []Entry{
		{LFN: "a", Size: 1, CRC32: "11111111"},
		{LFN: "c", Size: 3, CRC32: "33333333"},
		{LFN: "d", Size: 4, CRC32: "44444444"},
		{LFN: "e", Size: 5, CRC32: "55555555"},
	}
	remote := []Entry{
		{LFN: "b", Size: 2, CRC32: "22222222"},
		{LFN: "a", Size: 1, CRC32: "11111111"},
		{LFN: "c", Size: 3, CRC32: "deadbeef"}, // CRC differs
		{LFN: "d", Size: 9, CRC32: "44444444"}, // size differs
	}
	d := Compare(local, remote)
	if got := entryNames(d.Missing); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Missing = %v, want [b]", got)
	}
	if got := entryNames(d.Stale); !reflect.DeepEqual(got, []string{"c", "d"}) {
		t.Fatalf("Stale = %v, want [c d]", got)
	}
	if got := entryNames(d.Extra); !reflect.DeepEqual(got, []string{"e"}) {
		t.Fatalf("Extra = %v, want [e]", got)
	}
}

func TestCompareEmpty(t *testing.T) {
	d := Compare(nil, nil)
	if len(d.Missing)+len(d.Stale)+len(d.Extra) != 0 {
		t.Fatalf("empty digests produced diff %+v", d)
	}
}

func TestLimiterPacing(t *testing.T) {
	// 64 KiB/s with a 64 KiB burst: consuming 192 KiB must take at least
	// ~2 s of simulated deficit. Use a generous lower bound to stay
	// timing-robust under -race.
	lim := NewLimiter(64 << 10)
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := lim.Wait(ctx, 64<<10); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if el := time.Since(start); el < 1200*time.Millisecond {
		t.Fatalf("3x64KiB at 64KiB/s took %v, want >= 1.2s", el)
	}
}

func TestLimiterNilAndCancel(t *testing.T) {
	var nilLim *Limiter
	if err := nilLim.Wait(context.Background(), 1<<30); err != nil {
		t.Fatalf("nil limiter Wait: %v", err)
	}
	lim := NewLimiter(1) // 1 byte/s, 1-byte burst: a 10-byte debt blocks ~9s
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := lim.Wait(ctx, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait under dead ctx = %v, want deadline", err)
	}
}

// TestCRC32File checks BlockCRC32File's whole-file mode (blockSize 0):
// the CRC and byte count of a multi-chunk file, and a missing file.
func TestCRC32File(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	data := make([]byte, 3*scanChunk/2) // forces multiple chunks
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, blocks, n, err := BlockCRC32File(context.Background(), path, 0, nil)
	if err != nil {
		t.Fatalf("BlockCRC32File: %v", err)
	}
	if n != int64(len(data)) {
		t.Fatalf("read %d bytes, want %d", n, len(data))
	}
	if want := crc32.ChecksumIEEE(data); sum != want {
		t.Fatalf("crc = %08x, want %08x", sum, want)
	}
	if blocks != nil {
		t.Fatalf("blocks = %v, want none in whole-file mode", blocks)
	}
	if _, _, _, err := BlockCRC32File(context.Background(), filepath.Join(dir, "absent"), 0, nil); !os.IsNotExist(err) {
		t.Fatalf("absent file err = %v, want not-exist", err)
	}
}

func TestBlockCRC32File(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	data := make([]byte, 3*scanChunk/2+777) // multiple chunks, ragged tail
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A block size that does not divide the chunk size, so block
	// boundaries land mid-chunk.
	const bs = 100_000
	sum, blocks, n, err := BlockCRC32File(context.Background(), path, bs, nil)
	if err != nil {
		t.Fatalf("BlockCRC32File: %v", err)
	}
	if n != int64(len(data)) {
		t.Fatalf("read %d bytes, want %d", n, len(data))
	}
	if want := crc32.ChecksumIEEE(data); sum != want {
		t.Fatalf("whole-file crc = %08x, want %08x", sum, want)
	}
	wantBlocks := (len(data) + bs - 1) / bs
	if len(blocks) != wantBlocks {
		t.Fatalf("got %d block digests, want %d", len(blocks), wantBlocks)
	}
	for i, got := range blocks {
		lo := i * bs
		hi := lo + bs
		if hi > len(data) {
			hi = len(data)
		}
		if want := crc32.ChecksumIEEE(data[lo:hi]); got != want {
			t.Fatalf("block %d crc = %08x, want %08x", i, got, want)
		}
	}
	// blockSize <= 0 is the whole-file mode.
	sum2, blocks2, _, err := BlockCRC32File(context.Background(), path, 0, nil)
	if err != nil || sum2 != sum || blocks2 != nil {
		t.Fatalf("blockSize=0: sum=%08x blocks=%v err=%v", sum2, blocks2, err)
	}
}

// BenchmarkBlockCRC32File times the scrub's read of one 4 MiB replica with
// the 512 KiB blocks an 8+2 sidecar gives it, the call scrubOne makes: the
// file sits in the page cache, so the time is the hashing.
func BenchmarkBlockCRC32File(b *testing.B) {
	path := filepath.Join(b.TempDir(), "blob")
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, _, _, err := BlockCRC32File(context.Background(), path, 512<<10, nil); err != nil {
			b.Fatal(err)
		}
	}
}
