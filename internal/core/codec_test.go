package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gdmp/internal/obs"
	"gdmp/internal/rpc"
	"gdmp/internal/scrub"
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
// of records that rebuilds the tables, every snapshot record too. Each
// record is applied on top of the tables the parent's crash image replays
// to, so it meets a catalog, a subscriber, an intent and a producer. It
// must never panic, nor allocate for what a length or count claims rather
// than for the bytes present; a record it accepts leaves tables whose
// snapshot replays to the same tables, and in which no intent names a
// cataloged LFN. Seeds are the records of the parent's crash image (all
// fifteen tags, the retired ones included) and of its graceful snapshot
// (testdata/parent-journal), each record also cut short by a byte, and an
// intent for the image's cataloged a.db; `make fuzz-smoke` mutates them.
func FuzzSiteRecord(f *testing.F) {
	base := journalRecords(f, filepath.Join("testdata", "parent-journal", "crash"))
	for _, r := range slices.Concat(base, journalRecords(f, filepath.Join("testdata", "parent-journal", "graceful"))) {
		f.Add(r)
		f.Add(r[:len(r)-1])
	}
	var intent rpc.Encoder
	pullQueuedRecord(FileInfo{LFN: "lfn://cern.ch/run1/a.db"})(&intent)
	f.Add(intent.Bytes())
	f.Fuzz(func(t *testing.T, r []byte) {
		p := testPersist(t, "")
		for _, rec := range base {
			if err := p.st.apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		if cost := allocatedBy(func() { err = p.st.apply(r) }); cost >= 64<<10+16*uint64(len(r)) {
			t.Fatalf("applying a %d-byte record allocated %d bytes", len(r), cost)
		}
		if err != nil {
			return
		}
		for lfn := range p.st.pulls {
			if _, ok := p.st.files.byLFN[lfn]; ok {
				t.Fatalf("after %x an intent names the cataloged %s", r, lfn)
			}
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

// FuzzFsckReply feeds the gdmp.fsck reply decoder bytes a peer site
// controls: the CLI's `gdmp fsck` and the handler share its one layout.
// It must never panic nor allocate for what the bytes claim, and a reply
// it accepts re-encodes to the same bytes. Seeds are a full report, each of
// its truncations, and the report with a trailing byte.
func FuzzFsckReply(f *testing.F) {
	var e rpc.Encoder
	encodeFsckReply(&e, scrub.Report{Scanned: 12, Bytes: 1 << 33, Corrupt: 3, Missing: 1, Repairs: 4, Rebuilt: 2, Fallbacks: 1})
	for cut := 0; cut <= len(e.Bytes()); cut++ {
		f.Add(e.Bytes()[:cut])
	}
	f.Add(append(e.Bytes(), 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var rep scrub.Report
		var err error
		if got := allocatedBy(func() { rep, err = DecodeFsckReply(rpc.NewDecoder(payload)) }); got >= 64<<10 {
			t.Fatalf("decoding a %d-byte reply allocated %d bytes", len(payload), got)
		}
		if err != nil {
			return
		}
		var again rpc.Encoder
		encodeFsckReply(&again, rep)
		if !bytes.Equal(again.Bytes(), payload) {
			t.Fatalf("decode → encode of %x gave %x", payload, again.Bytes())
		}
	})
}

// statusScrape is the seed exposition of FuzzDecodeSiteStatus: one family
// of each kind `gdmp status` reads, a labelled one whose value needs
// escapes and a gauge without help text among them.
func statusScrape() string {
	reg := obs.NewRegistry()
	legs := reg.CounterVec(SiteMetricsPrefix+"_transfers_total", "Transfer legs run against a source, by outcome.", "outcome")
	legs.WithLabelValues("ok").Add(40)
	legs.WithLabelValues("error").Add(2)
	reg.Counter(SiteMetricsPrefix+"_transfer_bytes_total", "Bytes replicated by transfer legs that succeeded.").Add(1 << 30)
	reg.Gauge(SiteMetricsPrefix+"_pending_queue_depth", "").Set(-1)
	reg.Histogram("gdmp_rls_locate_seconds", "Locate latency.", []float64{0.0005, 0.002}).Observe(0.001)
	reg.GaugeVec("gdmp_health_state", "Breaker state per peer.", "peer").WithLabelValues(`127.0.0.1:2811 "a\b"`).Set(2)
	return reg.Text()
}

// FuzzDecodeSiteStatus feeds the decoder of a site's status the bytes a
// peer site controls: the gdmp.metrics reply, which `gdmp status` reads
// back with obs.ParseText. Seeds are a site's exposition and each of its
// truncations. The decoder must never panic, and what it accepts has one
// written form: written out and decoded again, it writes out the same.
func FuzzDecodeSiteStatus(f *testing.F) {
	text := statusScrape()
	for cut := 0; cut <= len(text); cut++ {
		f.Add(text[:cut])
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := obs.ParseText(text)
		if err != nil {
			return
		}
		once := writeScrape(s)
		again, err := obs.ParseText(once)
		if err != nil {
			t.Fatalf("%q decoded, but its written form %q does not: %v", text, once, err)
		}
		if twice := writeScrape(again); twice != once {
			t.Fatalf("%q written out as %q, then as %q", text, once, twice)
		}
	})
}

// writeScrape writes a scrape back in the text format, sorted so that
// equal scrapes write equal text.
func writeScrape(s *obs.Scrape) string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Help) {
		fmt.Fprintf(&b, "# HELP %s %s\n", name, s.Help[name])
	}
	for _, name := range sortedKeys(s.Typed) {
		fmt.Fprintf(&b, "# TYPE %s untyped\n", name)
	}
	for _, name := range sortedKeys(s.Series) {
		for _, smp := range s.Series[name] {
			b.WriteString(name)
			if smp.Labels != nil {
				b.WriteByte('{')
				for i, k := range sortedKeys(smp.Labels) {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(k + "=" + strconv.Quote(smp.Labels[k]))
				}
				b.WriteByte('}')
			}
			b.WriteString(" " + strconv.FormatFloat(smp.Value, 'g', -1, 64) + "\n")
		}
	}
	return b.String()
}
