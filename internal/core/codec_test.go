package core

import (
	"runtime"
	"testing"

	"gdmp/internal/rpc"
)

// allocatedBy reports the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeFileInfosHostileInput: the list's entry count is read from the
// peer (gdmp.notify, gdmp.catalog) and from journal bytes, so it must not
// size an allocation on its own. Every malformed body decodes to an error
// and costs well under a megabyte.
func TestDecodeFileInfosHostileInput(t *testing.T) {
	whole := func(n uint32, entries ...FileInfo) []byte {
		var e rpc.Encoder
		e.Uint32(n)
		for _, fi := range entries {
			encodeFileInfo(&e, fi)
		}
		return e.Bytes()
	}
	fi := FileInfo{LFN: "lfn://x/a", Path: "a.db", Size: 7, CRC32: "0badf00d", FileType: "flat", State: StateDisk}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"count only, 2^32-1 entries claimed", whole(1<<32 - 1)},
		{"one entry, 2^31 claimed", whole(1<<31, fi)},
		{"two claimed, one sent", whole(2, fi)},
		{"count truncated", whole(1)[:3]},
		{"entry truncated", whole(1, fi)[:20]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var files []FileInfo
			var err error
			cost := allocatedBy(func() {
				d := rpc.NewDecoder(tc.body)
				files = decodeFileInfos(d)
				err = d.Finish()
			})
			if err == nil {
				t.Fatalf("decoded %d entries without error", len(files))
			}
			if len(files) != 0 {
				t.Fatalf("a failed decode returned %d entries", len(files))
			}
			if cost >= 1<<20 {
				t.Fatalf("decoding %d bytes allocated %d", len(tc.body), cost)
			}
		})
	}
	// The well-formed list still round-trips.
	d := rpc.NewDecoder(whole(2, fi, fi))
	if got := decodeFileInfos(d); len(got) != 2 || got[1] != fi || d.Finish() != nil {
		t.Fatalf("round trip = %+v, %v", got, d.Err())
	}
}
