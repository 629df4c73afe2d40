package parity

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"gdmp/internal/durable"
)

// damage flips one bit somewhere inside each of the chosen data blocks.
func damage(data []byte, sc *Sidecar, blocks []int, rng *rand.Rand) {
	for _, b := range blocks {
		off := int64(b) * sc.BlockSize
		bl := blockLen(b, sc.BlockSize, sc.DataSize)
		data[off+rng.Int63n(bl)] ^= 1 << uint(rng.Intn(8))
	}
}

// pickBlocks chooses n distinct data-block indices that actually hold bytes.
func pickBlocks(sc *Sidecar, n int, rng *rand.Rand) []int {
	var nonEmpty []int
	for i := 0; i < sc.K; i++ {
		if blockLen(i, sc.BlockSize, sc.DataSize) > 0 {
			nonEmpty = append(nonEmpty, i)
		}
	}
	rng.Shuffle(len(nonEmpty), func(i, j int) { nonEmpty[i], nonEmpty[j] = nonEmpty[j], nonEmpty[i] })
	if n > len(nonEmpty) {
		n = len(nonEmpty)
	}
	return nonEmpty[:n]
}

// TestRebuildRoundTripProperty: for random geometry and content, ANY damage
// to at most m data blocks round-trips back to the original bytes.
func TestRebuildRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		m := 1 + rng.Intn(4)
		size := 1 + rng.Intn(64<<10)
		orig := make([]byte, size)
		rng.Read(orig)
		sc, err := Create(orig, k, m)
		if err != nil {
			t.Logf("seed %d: Create: %v", seed, err)
			return false
		}
		corrupt := append([]byte(nil), orig...)
		n := 1 + rng.Intn(m)
		hit := pickBlocks(sc, n, rng)
		damage(corrupt, sc, hit, rng)
		fixed, rebuilt, err := sc.Rebuild(corrupt)
		if err != nil {
			t.Logf("seed %d (k=%d m=%d size=%d damaged=%v): Rebuild: %v", seed, k, m, size, hit, err)
			return false
		}
		if !bytes.Equal(fixed, orig) {
			t.Logf("seed %d: rebuilt content differs from original", seed)
			return false
		}
		if len(rebuilt) != len(hit) {
			t.Logf("seed %d: rebuilt %d blocks, damaged %d", seed, len(rebuilt), len(hit))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOverBudgetDamageNeverSilentlyRepaired: damage to more than m blocks is
// always detected — Rebuild must error, never hand back wrong bytes.
func TestOverBudgetDamageNeverSilentlyRepaired(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 4 + rng.Intn(8)
		m := 1 + rng.Intn(3)
		size := k*512 + rng.Intn(32<<10) // enough bytes that m+1 blocks exist
		orig := make([]byte, size)
		rng.Read(orig)
		sc, err := Create(orig, k, m)
		if err != nil {
			t.Logf("seed %d: Create: %v", seed, err)
			return false
		}
		corrupt := append([]byte(nil), orig...)
		hit := pickBlocks(sc, m+1, rng)
		if len(hit) <= m {
			return true // geometry collapsed below m+1 usable blocks; vacuous
		}
		damage(corrupt, sc, hit, rng)
		fixed, _, err := sc.Rebuild(corrupt)
		if err == nil {
			// Only acceptable if the "repair" is in fact the original —
			// e.g. two bit flips cancelling is impossible here (distinct
			// blocks), so this is a real failure.
			if !bytes.Equal(fixed, orig) {
				t.Logf("seed %d: over-budget damage silently mis-repaired", seed)
				return false
			}
		}
		return err != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParityBlockRotCountsAsErasure: one rotted parity block plus m-1
// damaged data blocks still rebuilds; plus m damaged data blocks must fail.
func TestParityBlockRotCountsAsErasure(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	orig := make([]byte, 40_000)
	rng.Read(orig)
	sc, err := Create(orig, DefaultK, DefaultM)
	if err != nil {
		t.Fatal(err)
	}
	sc.Parity[0][7] ^= 0xff // rot one parity block

	corrupt := append([]byte(nil), orig...)
	damage(corrupt, sc, []int{3}, rng) // m-1 = 1 data block
	fixed, _, err := sc.Rebuild(corrupt)
	if err != nil || !bytes.Equal(fixed, orig) {
		t.Fatalf("1 parity + 1 data erasure should rebuild: %v", err)
	}

	corrupt = append([]byte(nil), orig...)
	damage(corrupt, sc, []int{1, 5}, rng) // m = 2 data blocks + 1 parity = 3 erasures
	if _, _, err := sc.Rebuild(corrupt); err == nil {
		t.Fatal("3 erasures with m=2 must not rebuild")
	}
}

func TestSidecarFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	orig := make([]byte, 12_345)
	rng.Read(orig)
	sc, err := Create(orig, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f.dat"+Suffix)
	crcHex, err := sc.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, gotCRC, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotCRC != crcHex {
		t.Fatalf("file CRC mismatch: wrote %s, loaded %s", crcHex, gotCRC)
	}
	if got.K != sc.K || got.M != sc.M || got.BlockSize != sc.BlockSize ||
		got.DataSize != sc.DataSize || got.DataCRC != sc.DataCRC {
		t.Fatalf("header mismatch: %+v vs %+v", got, sc)
	}
	// Load leaves the payload on disk, after the header.
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := enc[headerLen(sc.K, sc.M):]
	for i := range sc.Parity {
		if !bytes.Equal(payload[int64(i)*sc.BlockSize:int64(i+1)*sc.BlockSize], sc.Parity[i]) {
			t.Fatalf("parity shard %d mismatch", i)
		}
	}
	if got.Parity != nil || !slices.Equal(got.DataCRCs, sc.DataCRCs) || !slices.Equal(got.ParityCRCs, sc.ParityCRCs) {
		t.Fatalf("loaded sidecar differs: %+v vs %+v", got, sc)
	}
	// The loaded sidecar repairs from its file exactly as the in-memory one
	// does from its shards.
	corrupt := append([]byte(nil), orig...)
	damage(corrupt, sc, []int{0, 4}, rng)
	fixed, rebuilt, err := got.Rebuild(corrupt)
	if err != nil || !bytes.Equal(fixed, orig) || len(rebuilt) != 2 {
		t.Fatalf("rebuild from a loaded sidecar: %v (rebuilt %v)", err, rebuilt)
	}
	if _, err := os.Stat(path + durable.PartSuffix); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}

// TestLoadRejectsCorruptHeader: a bit flip anywhere in the header makes Load
// fail with ErrSidecarCorrupt rather than yielding a bogus sidecar.
func TestLoadRejectsCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	orig := make([]byte, 9_000)
	rng.Read(orig)
	sc, err := Create(orig, DefaultK, DefaultM)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f"+Suffix)
	if _, err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := 8 + 2 + 2 + 8 + 8 + 4 + 4*(sc.K+sc.M) + 4
	for _, off := range []int{0, 9, 13, 21, 29, headerLen - 2} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); err == nil {
			t.Fatalf("corrupt header byte %d accepted", off)
		}
	}
	// Truncated payload must also be rejected.
	if err := os.WriteFile(path, enc[:len(enc)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path); err == nil {
		t.Fatal("truncated parity payload accepted")
	}
}

// TestLoadRejectsCorruptPayload: a bit flip inside any parity block makes
// Load fail with ErrSidecarCorrupt, though the header still verifies — a
// sidecar that loads is whole.
func TestLoadRejectsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	orig := make([]byte, 9_000)
	rng.Read(orig)
	sc, err := Create(orig, DefaultK, DefaultM)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "f"+Suffix)
	if _, err := sc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hl := int(headerLen(sc.K, sc.M))
	for _, off := range []int{hl, hl + int(sc.BlockSize) - 1, hl + int(sc.BlockSize), len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(path); !errors.Is(err, ErrSidecarCorrupt) {
			t.Fatalf("corrupt payload byte %d: Load = %v, want ErrSidecarCorrupt", off, err)
		}
	}
}

// TestRebuildTruncatedFile: losing the file's tail (a torn write) is block
// damage like any other, repairable while within budget.
func TestRebuildTruncatedFile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	orig := make([]byte, 20_000)
	rng.Read(orig)
	sc, err := Create(orig, DefaultK, DefaultM) // blockSize 2500
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last two blocks: 2 erasures, exactly the budget.
	fixed, rebuilt, err := sc.Rebuild(orig[:16_000])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, orig) {
		t.Fatal("truncated file not restored")
	}
	if len(rebuilt) != 2 {
		t.Fatalf("expected 2 rebuilt blocks, got %v", rebuilt)
	}
	// Cutting three blocks exceeds the budget.
	if _, _, err := sc.Rebuild(orig[:12_000]); err == nil {
		t.Fatal("3-block truncation must not rebuild with m=2")
	}
}

func TestDamagedBlocksMatchesDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := make([]byte, 10_000)
	rng.Read(orig)
	sc, err := Create(orig, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), orig...)
	damage(corrupt, sc, []int{2}, rng)
	crcs := make([]uint32, sc.K)
	for i := 0; i < sc.K; i++ {
		off := int64(i) * sc.BlockSize
		crcs[i] = crc32.ChecksumIEEE(corrupt[off : off+blockLen(i, sc.BlockSize, sc.DataSize)])
	}
	bad := sc.DamagedBlocks(crcs)
	if len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("expected damaged=[2], got %v", bad)
	}
}

// TestCRCCombineProperty: CRCCombine agrees with a CRC of the concatenation
// for random splits, empty halves included.
func TestCRCCombineProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ab := make([]byte, rng.Intn(200_000))
		rng.Read(ab)
		cut := 0
		switch rng.Intn(4) {
		case 0: // empty a
		case 1:
			cut = len(ab) // empty b
		default:
			cut = rng.Intn(len(ab) + 1)
		}
		a, b := ab[:cut], ab[cut:]
		return CRCCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b))) == crc32.ChecksumIEEE(ab)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestX2nModPWraps: squaring the last x^(2^n) gives the first, x^(2^32) =
// x, which is what lets CRCCombine index the table modulo 32 for lengths
// of 2^29 bytes and more.
func TestX2nModPWraps(t *testing.T) {
	for n := range x2nModP {
		if sq := multModP(x2nModP[n], x2nModP[n]); sq != x2nModP[(n+1)%32] {
			t.Fatalf("x^(2^%d) squared = %#x, want table entry %d = %#x", n, sq, (n+1)%32, x2nModP[(n+1)%32])
		}
	}
}

// crcSink keeps BenchmarkCRCCombine's result live.
var crcSink uint32

// BenchmarkCRCCombine times one combine at a small and a large block: the
// cost is per set bit of the length, not per byte.
func BenchmarkCRCCombine(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int64
	}{{"512B", 512}, {"1MiB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				crcSink = CRCCombine(crcSink, 0x9abcdef0, bc.n)
			}
		})
	}
}

// refMul multiplies in GF(2^8) from the definition, with no table: the
// carry-less product of the two polynomials, then its remainder mod 0x11d.
func refMul(a, b byte) byte {
	var p uint16
	for i := 0; i < 8; i++ {
		if b&(1<<i) != 0 {
			p ^= uint16(a) << i
		}
	}
	for bit := 14; bit >= 8; bit-- {
		if p&(1<<bit) != 0 {
			p ^= gfPoly << (bit - 8)
		}
	}
	return byte(p)
}

// mulKernels are the multiply-accumulate kernels this machine can run: the
// portable one everywhere, and a SIMD one where gf_<arch>_test.go finds the
// CPU has it.
var mulKernels = []mulKernel{{"generic", gfMulSliceGeneric}}

type mulKernel struct {
	name string
	fn   func(c byte, in, out []byte)
}

// checkMulSlice runs every kernel on in and on out[outOff:outOff+len(in)],
// and fails unless each adds exactly row[in[i]] (row is c's products by the
// field's definition) to that window of out and leaves the rest of out,
// through its capacity, as it was.
func checkMulSlice(t *testing.T, c byte, row *[256]byte, in, out []byte, outOff int) {
	t.Helper()
	want := append([]byte(nil), out...)
	for i, v := range in {
		want[outOff+i] ^= row[v]
	}
	for _, k := range mulKernels {
		got := append([]byte(nil), out...)
		k.fn(c, in, got[outOff:outOff+len(in)])
		if !bytes.Equal(got, want) {
			t.Fatalf("%s kernel, c=%d n=%d out offset %d: disagrees with the field", k.name, c, len(in), outOff)
		}
	}
}

func refRow(c byte) *[256]byte {
	var row [256]byte
	for x := range row {
		row[x] = refMul(c, byte(x))
	}
	return &row
}

// TestMulSliceMatchesField: every kernel computes, for every coefficient,
// every length around the 8-byte word and the 32-byte SIMD step, and input
// and output windows at every offset from a 32-byte boundary, what the
// definition of the field does byte by byte; and the table's inverses are
// inverses.
func TestMulSliceMatchesField(t *testing.T) {
	for a := 1; a < 256; a++ {
		if refMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("gfInv(%d) is not its inverse", a)
		}
	}
	for _, k := range mulKernels {
		t.Logf("kernel %s", k.name)
	}
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 31+chunkSize)
	for i := range src {
		src[i] = byte(i) // every field element in every 256 bytes
	}
	lengths := []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 8*32 + 7, chunkSize}
	for c := 0; c < 256; c++ {
		row := refRow(byte(c))
		for li, n := range lengths {
			inOff, outOff := (c+li)%32, (7*c+3*li)%32
			out := make([]byte, outOff+n+32)
			rng.Read(out)
			checkMulSlice(t, byte(c), row, src[inOff:inOff+n], out, outOff)
		}
	}
}

// FuzzMulSlice: every kernel agrees with the field on a random coefficient,
// random bytes and random offsets of the input and output windows.
func FuzzMulSlice(f *testing.F) {
	f.Add(byte(2), uint8(0), uint8(0), bytes.Repeat([]byte{0xff}, 100))
	f.Add(byte(0x8e), uint8(1), uint8(31), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, c byte, inOff, outOff uint8, data []byte) {
		inOff, outOff = inOff%32, outOff%32
		if int(inOff) > len(data) {
			return
		}
		in := data[inOff:]
		out := make([]byte, int(outOff)+len(in)+32)
		for i := range out {
			out[i] = byte(i) ^ c
		}
		checkMulSlice(t, c, refRow(c), in, out, int(outOff))
	})
}

func BenchmarkMulSlice(b *testing.B) {
	in, out := make([]byte, chunkSize), make([]byte, chunkSize)
	rand.New(rand.NewSource(1)).Read(in)
	b.SetBytes(chunkSize)
	for i := 0; i < b.N; i++ {
		gfMulSlice(byte(i)|2, in, out)
	}
}

// TestCreateAllocs: the coding matrix is built once per geometry, so a
// Create of 4 KiB at 8+2 allocates only what its own walk needs.
func TestCreateAllocs(t *testing.T) {
	data := make([]byte, 4<<10)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Create(data, 8, 2); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Create", allocs)
	if allocs > 22 {
		t.Errorf("a 4 KiB Create at 8+2 allocates %.0f times, want at most 22", allocs)
	}
}
