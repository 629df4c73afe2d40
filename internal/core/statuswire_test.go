package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"gdmp/internal/rpc"
	"gdmp/internal/scrub"
)

// fullStatus sets every field of the status payload, two health rows
// included.
func fullStatus() SiteStatus {
	return SiteStatus{
		Name:             "cern.ch",
		LocalFiles:       12,
		Subscribers:      3,
		TransfersOK:      40,
		TransfersFailed:  2,
		BytesReplicated:  1 << 30,
		PendingTransfers: 1,
		RestoredFiles:    5,
		RequeuedPulls:    2,
		QuarantinedFiles: 1,
		RequeuedNotices:  4,
		Journal:          "ok",
		PoolUsed:         700,
		PoolCapacity:     1000,
		PoolHits:         55,
		PoolMisses:       11,
		PoolEvictions:    7,

		ParitySidecars:      9,
		ParityRebuilds:      3,
		ParityFallbacks:     1,
		RepairBytesLocal:    4096,
		RepairBytesRepulled: 1 << 20,

		DigestGen:          6,
		DigestPushes:       20,
		DigestLFNs:         12,
		RLIQueries:         8,
		RLIFalsePositives:  2,
		RLSLocateP99Micros: 850,

		HealthPeers: []PeerHealthStatus{
			{
				Peer: "127.0.0.1:2811", Breaker: "open", ConsecFails: 3,
				BandwidthKbps: 80000, LatencyMicros: 1500,
				// time.Unix carries no monotonic reading, so the wire
				// round trip is value-exact.
				LastTransition: time.Unix(0, 1723200000000000000),
			},
			{Peer: "127.0.0.1:2812", Breaker: "closed", BandwidthKbps: 912000},
		},

		BrownoutActive:    true,
		BrownoutLoadMilli: 812,
		AdmissionAdmitted: 4000,
		AdmissionRejected: 37,
		AdmissionExpired:  5,
		AdmissionShed:     9,
		BrownoutEntered:   2,
		BrownoutDeferred:  14,
	}
}

func TestSiteStatusWireRoundTrip(t *testing.T) {
	want := fullStatus()
	var e rpc.Encoder
	encodeSiteStatus(&e, want)
	d := rpc.NewDecoder(e.Bytes())
	got := decodeSiteStatus(d)
	if err := d.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

// The payload has one layout: every cut of it is an error, never a status
// with zeros where the missing fields were, and a claimed peer count with
// nothing behind it allocates nothing for the rows it claims.
func TestSiteStatusDecodeRejectsTruncation(t *testing.T) {
	var e rpc.Encoder
	encodeSiteStatus(&e, fullStatus())
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeSiteStatus(rpc.NewDecoder(full[:cut])); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded without error", cut, len(full))
		}
	}

	// Everything before the health block, then a count of 2^63 and EOF.
	e = rpc.Encoder{}
	encodeSiteStatus(&e, SiteStatus{Name: "x"})
	hostile := e.Bytes()[:e.Len()-8-(1+7*8)] // drop the count and the brownout block
	hostile = binary.BigEndian.AppendUint64(hostile, 1<<63)
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		_, err = DecodeSiteStatus(rpc.NewDecoder(hostile))
	})
	if err == nil {
		t.Fatal("a peer count of 2^63 with no rows decoded without error")
	}
	if allocs > 64 {
		t.Fatalf("a peer count of 2^63 with no rows cost %v allocations", allocs)
	}
}

// FuzzDecodeSiteStatus feeds the status decoder bytes a peer site
// controls. Seeds are the full payload and each of its truncations;
// `make fuzz-smoke` mutates them.
func FuzzDecodeSiteStatus(f *testing.F) {
	var e rpc.Encoder
	encodeSiteStatus(&e, fullStatus())
	for cut := 0; cut <= e.Len(); cut++ {
		f.Add(e.Bytes()[:cut])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var st SiteStatus
		var err error
		// Strings and health rows cost memory only for bytes actually
		// present (a row is an 80-byte struct read from at least 40 payload
		// bytes, and append growth can multiply that); nothing is
		// allocated for what a length or count merely claims.
		if got := allocatedBy(func() { st, err = DecodeSiteStatus(rpc.NewDecoder(payload)) }); got >= 64<<10+16*uint64(len(payload)) {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), got)
		}
		if err != nil {
			return
		}
		var again rpc.Encoder
		encodeSiteStatus(&again, st)
		st2, err := DecodeSiteStatus(rpc.NewDecoder(again.Bytes()))
		if err != nil || !reflect.DeepEqual(st2, st) {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", st, st2, err)
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
	for cut := 0; cut <= e.Len(); cut++ {
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
