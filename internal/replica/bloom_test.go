package replica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("lfn://cern.ch/run%d.db", i))
	}
	for i := 0; i < 1000; i++ {
		if !b.Test(fmt.Sprintf("lfn://cern.ch/run%d.db", i)) {
			t.Fatalf("false negative for run%d", i)
		}
	}
	if got := b.Count(); got != 1000 {
		t.Fatalf("Count() = %d, want 1000", got)
	}
}

func TestBloomFPRateNearTarget(t *testing.T) {
	const n, target = 10000, 0.01
	b := NewBloom(n, target)
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("member-%d", i))
	}
	rng := rand.New(rand.NewSource(42))
	fps := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if b.Test(fmt.Sprintf("absent-%d", rng.Int63())) {
			fps++
		}
	}
	rate := float64(fps) / probes
	// The sizing formula targets 1%; allow 3x slack for hash clustering.
	if rate > 3*target {
		t.Fatalf("observed FP rate %.4f, want <= %.4f", rate, 3*target)
	}
	if est := b.EstimatedFPRate(); est > 3*target {
		t.Fatalf("EstimatedFPRate() = %.4f, want <= %.4f", est, 3*target)
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	b := NewBloom(500, 0.02)
	for i := 0; i < 500; i++ {
		b.Add(fmt.Sprintf("item-%d", i))
	}
	got, err := UnmarshalBloom(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.k != b.k || got.m != b.m || got.n != b.n {
		t.Fatalf("params differ: got (%d,%d,%d) want (%d,%d,%d)",
			got.k, got.m, got.n, b.k, b.m, b.n)
	}
	for i := 0; i < 500; i++ {
		if !got.Test(fmt.Sprintf("item-%d", i)) {
			t.Fatalf("round-tripped filter lost item-%d", i)
		}
	}
}

func TestBloomUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		[]byte("NOPE1234567890123456789012345678"),
		NewBloom(10, 0.01).Marshal()[:10], // truncated
	}
	for i, p := range cases {
		if _, err := UnmarshalBloom(p); err == nil {
			t.Errorf("case %d: UnmarshalBloom accepted garbage", i)
		}
	}
}

// FuzzUnmarshalBloom: the digest a site pushes is total on hostile bytes. A
// filter is allocated only for words the payload carries, never for the bit
// count it claims; one that decodes answers Test without panicking and
// marshals back to the same bytes.
func FuzzUnmarshalBloom(f *testing.F) {
	b := NewBloom(100, 0.01)
	for i := 0; i < 100; i++ {
		b.Add(fmt.Sprintf("lfn://cern.ch/run%d.db", i))
	}
	for _, p := range [][]byte{b.Marshal(), NewBloom(0, 0.01).Marshal()} {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	claim := NewBloom(0, 0.01).Marshal()
	binary.BigEndian.PutUint64(claim[8:], bloomMaxBits) // 128 MiB claimed, 8 bytes sent
	f.Add(claim)
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := UnmarshalBloom(p)
		runtime.ReadMemStats(&after)
		// 64 KiB of floor for what the fuzzing engine allocates meanwhile.
		if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10+2*uint64(len(p)) {
			t.Fatalf("decoding a %d-byte digest allocated %d bytes", len(p), n)
		}
		if err != nil {
			return
		}
		got.Test("lfn://cern.ch/run7.db")
		if !bytes.Equal(got.Marshal(), p) {
			t.Fatal("accepted digest does not marshal back to its bytes")
		}
	})
}

func TestBloomEmpty(t *testing.T) {
	b := NewBloom(0, 0.01)
	if b.Test("anything") {
		t.Fatal("empty filter matched")
	}
	got, err := UnmarshalBloom(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Test("anything") {
		t.Fatal("round-tripped empty filter matched")
	}
}
