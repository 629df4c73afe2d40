package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"gdmp/internal/journal"
	"gdmp/internal/obs"
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

// FuzzSiteRecord feeds hostile bytes to persistState.apply, the one decoder
// of the site's journal: every WAL record and, since a snapshot is the run
// of records that rebuilds the tables, every snapshot record too. It must
// never panic, nor allocate for what a length or count claims rather than
// for the bytes present; and a record it accepts leaves tables whose
// snapshot replays to the same tables. Seeds are the WAL of the golden
// crash sequence (all fifteen tags) and the snapshot of the golden
// graceful one, each record also cut short by a byte; `make fuzz-smoke`
// mutates them.
func FuzzSiteRecord(f *testing.F) {
	dir := f.TempDir()
	p := testPersist(f, dir)
	goldenCrashSequence(p)
	p.close(false)
	var seeds [][]byte
	j, _, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{Registry: obs.NewRegistry(), Replay: func(r []byte) error {
		seeds = append(seeds, append([]byte(nil), r...))
		return nil
	}})
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	q := testPersist(f, "")
	goldenGracefulSequence(q)
	q.st.records(func(r []byte) bool {
		seeds = append(seeds, append([]byte(nil), r...))
		return true
	})
	for _, r := range seeds {
		f.Add(r)
		f.Add(r[:len(r)-1])
	}
	f.Fuzz(func(t *testing.T, r []byte) {
		p := testPersist(t, "")
		var err error
		if cost := allocatedBy(func() { err = p.st.apply(r) }); cost >= 64<<10+16*uint64(len(r)) {
			t.Fatalf("applying a %d-byte record allocated %d bytes", len(r), cost)
		}
		if err != nil {
			return
		}
		replay := testPersist(t, "")
		p.st.records(func(r []byte) bool {
			if err := replay.st.apply(r); err != nil {
				t.Fatalf("snapshot record %x: %v", r, err)
			}
			return true
		})
		if !reflect.DeepEqual(replay.tables(), p.tables()) {
			t.Fatalf("tables after %x:\n%+v\nsnapshot replays to\n%+v", r, p.tables(), replay.tables())
		}
	})
}
