package parity_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"gdmp/internal/faults"
	"gdmp/internal/parity"
	"gdmp/internal/testbed"
)

// golden is one line of testdata/MANIFEST: a sidecar the commit before the
// stripe loop wrote with CreateFile + WriteFile, and the file CRC WriteFile
// returned.
type golden struct {
	file       string
	k, m, size int
	seed       int64
	crc        string
}

func goldens(t testing.TB) []golden {
	f, err := os.Open(filepath.Join("testdata", "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []golden
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var g golden
		if _, err := fmt.Sscan(sc.Text(), &g.file, &g.k, &g.m, &g.size, &g.seed, &g.crc); err != nil {
			t.Fatalf("MANIFEST line %q: %v", sc.Text(), err)
		}
		out = append(out, g)
	}
	if len(out) < 7 {
		t.Fatalf("MANIFEST lists %d goldens", len(out))
	}
	return out
}

func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenSidecars pins the on-disk format to what the parent commit
// wrote: the file-to-file encoder and the memory adapter both reproduce
// every golden byte for byte with the same file CRC, and a
// parent-written sidecar repairs a replica with up to m damaged blocks.
func TestGoldenSidecars(t *testing.T) {
	for _, g := range goldens(t) {
		t.Run(g.file, func(t *testing.T) {
			dir := t.TempDir()
			want := readFile(t, filepath.Join("testdata", g.file))
			data := testbed.MakeData(g.size, g.seed)
			dataPath := filepath.Join(dir, "f.db")
			writeFile(t, dataPath, data)

			crc, err := parity.ProtectFile(dataPath, parity.SidecarPath(dataPath), g.k, g.m, fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)))
			if err != nil {
				t.Fatal(err)
			}
			if crc != crc32.ChecksumIEEE(data) {
				t.Fatalf("ProtectFile returned crc %08x, content has %08x", crc, crc32.ChecksumIEEE(data))
			}
			if got := readFile(t, parity.SidecarPath(dataPath)); !bytes.Equal(got, want) {
				t.Fatalf("file-to-file encode differs from the parent's sidecar (%d vs %d bytes)", len(got), len(want))
			}
			if _, err := os.Stat(parity.SidecarPath(dataPath) + ".part"); !os.IsNotExist(err) {
				t.Fatalf("staging file left behind: %v", err)
			}
			for name, create := range map[string]func() (*parity.Sidecar, error){
				"Create":     func() (*parity.Sidecar, error) { return parity.Create(data, g.k, g.m) },
				"CreateFile": func() (*parity.Sidecar, error) { return parity.CreateFile(dataPath, g.k, g.m) },
			} {
				sc, err := create()
				if err != nil {
					t.Fatal(name, err)
				}
				memPath := filepath.Join(dir, name+parity.Suffix)
				memCRC, err := sc.WriteFile(memPath)
				if err != nil {
					t.Fatal(name, err)
				}
				if !bytes.Equal(readFile(t, memPath), want) || memCRC != g.crc {
					t.Fatalf("%s + WriteFile differs from the parent's sidecar (crc %s, golden %s)", name, memCRC, g.crc)
				}
			}

			// The parent's bytes, not ours, repair the damage.
			scPath := parity.SidecarPath(dataPath)
			writeFile(t, scPath, want)
			sc, loadedCRC, err := parity.Load(scPath)
			if err != nil || loadedCRC != g.crc {
				t.Fatalf("Load of the golden: crc %s (want %s), %v", loadedCRC, g.crc, err)
			}
			for n := 0; n <= g.m; n++ {
				writeFile(t, dataPath, data)
				hit, err := faults.FlipBlocks(dataPath, g.seed+int64(n), sc.BlockSize, min(n, g.size))
				if err != nil {
					t.Fatal(err)
				}
				rebuilt, err := sc.RebuildFile(dataPath)
				if err != nil || len(rebuilt) != len(hit) {
					t.Fatalf("%d flipped blocks %v: rebuilt %v, %v", n, hit, rebuilt, err)
				}
				if !bytes.Equal(readFile(t, dataPath), data) {
					t.Fatalf("%d flipped blocks: content not restored", n)
				}
			}
			// One block more than the budget must change nothing on disk.
			if blocks := (g.size + int(sc.BlockSize) - 1) / int(sc.BlockSize); blocks > g.m {
				if _, err := faults.FlipBlocks(dataPath, g.seed, sc.BlockSize, g.m+1); err != nil {
					t.Fatal(err)
				}
				damaged := readFile(t, dataPath)
				if _, err := sc.RebuildFile(dataPath); err == nil {
					t.Fatal("damage beyond the budget was rebuilt")
				}
				if !bytes.Equal(readFile(t, dataPath), damaged) {
					t.Fatal("a refused rebuild changed the file")
				}
				if _, err := os.Stat(dataPath + ".part"); !os.IsNotExist(err) {
					t.Fatalf("a refused rebuild left its staging file: %v", err)
				}
			}
		})
	}
}

// TestProtectFileRefusesRot: the encoder writes nothing, staged or final,
// for bytes that do not hash to the cataloged CRC, and says why.
func TestProtectFileRefusesRot(t *testing.T) {
	dir := t.TempDir()
	data := testbed.MakeData(300_000, 9)
	dataPath := filepath.Join(dir, "f.db")
	catalogCRC := fmt.Sprintf("%08x", crc32.ChecksumIEEE(data))
	data[123_456] ^= 4
	writeFile(t, dataPath, data)
	if _, err := parity.ProtectFile(dataPath, parity.SidecarPath(dataPath), 8, 2, catalogCRC); !errors.Is(err, parity.ErrCRCMismatch) {
		t.Fatalf("rotted content: ProtectFile = %v, want ErrCRCMismatch", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory after a refused encode: %v, %v", ents, err)
	}
}

// allocated is the TotalAlloc delta of one call of fn, with the collector
// off so the pooled slab is not dropped half way.
func allocated(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFixedMemory proves the bound without a GB file: what one file-to-file
// encode and one file-to-file rebuild of m damaged blocks allocate does not
// depend on the file's size, and is far below it.
func TestFixedMemory(t *testing.T) {
	const bigFileMiB = 32
	// One P, so the slab the warm-up call returned to the pool is the one
	// the measured call finds (sync.Pool caches per P).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	const k, m = parity.DefaultK, parity.DefaultM
	mib := testbed.MakeData(1<<20, 3)
	measure := func(mibs int) (enc, reb uint64) {
		path := filepath.Join(dir, fmt.Sprintf("%d.db", mibs))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < mibs; i++ {
			binary.LittleEndian.PutUint64(mib, uint64(i))
			if _, err := f.Write(mib); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		enc = allocated(func() {
			if _, err = parity.ProtectFile(path, parity.SidecarPath(path), k, m, ""); err != nil {
				t.Fatal(err)
			}
		})
		sc, _, err := parity.Load(parity.SidecarPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := faults.FlipBlocks(path, 1, sc.BlockSize, m); err != nil {
			t.Fatal(err)
		}
		reb = allocated(func() {
			if rebuilt, err := sc.RebuildFile(path); err != nil || len(rebuilt) != m {
				t.Fatalf("rebuilt %v, %v", rebuilt, err)
			}
		})
		return enc, reb
	}
	measure(1) // primes the slab pool
	smallEnc, smallReb := measure(1)
	bigEnc, bigReb := measure(bigFileMiB)
	t.Logf("allocated on 1 MiB / %d MiB: encode %d / %d bytes, rebuild %d / %d bytes", bigFileMiB, smallEnc, bigEnc, smallReb, bigReb)
	for _, c := range []struct {
		what       string
		small, big uint64
	}{{"encode", smallEnc, bigEnc}, {"rebuild", smallReb, bigReb}} {
		if c.big > 2<<20 || c.big > c.small+allocSlack {
			t.Errorf("%s of %d MiB allocated %d bytes, of 1 MiB %d: not a fixed set of buffers", c.what, bigFileMiB, c.big, c.small)
		}
	}
}

// hostileHeader is a sidecar header whose checksum is right and whose sizes
// are absurd: only the geometry checks stand between it and an allocation.
func hostileHeader(k, m uint16, blockSize, dataSize uint64) []byte {
	le := binary.LittleEndian
	b := []byte("GDMPPAR\x01")
	b = le.AppendUint16(b, k)
	b = le.AppendUint16(b, m)
	b = le.AppendUint64(b, blockSize)
	b = le.AppendUint64(b, dataSize)
	b = append(b, make([]byte, 4+4*int(k+m))...)
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzLoadSidecar: Load is total on hostile bytes — it never panics and,
// reading the header and then each parity block it implies, never allocates
// in proportion to anything the header claims. A sidecar it accepts can be asked to rebuild without
// panicking either.
func FuzzLoadSidecar(f *testing.F) {
	for _, g := range goldens(f) {
		if enc := readFile(f, filepath.Join("testdata", g.file)); len(enc) < 64<<10 {
			f.Add(enc)
			f.Add(enc[:len(enc)-1])
		}
	}
	for _, h := range [][]byte{
		hostileHeader(8, 2, 1<<62, 1<<63-1),
		hostileHeader(8, 2, 1<<63-1, 1<<63-1),
		hostileHeader(1, 254, 1<<63, 1<<63),
		hostileHeader(2, 2, (1<<63-1)/2+1, 1<<63-1),
		hostileHeader(255, 0, 1, 255),
		append(hostileHeader(1, 1, 3, 3), 1, 2, 3),
	} {
		f.Add(h)
	}
	path := filepath.Join(f.TempDir(), "f"+parity.Suffix)
	f.Fuzz(func(t *testing.T, enc []byte) {
		writeFile(t, path, enc)
		var sc *parity.Sidecar
		if n := allocated(func() { sc, _, _ = parity.Load(path) }); n > 1<<20 {
			t.Fatalf("Load allocated %d bytes for a %d-byte file", n, len(enc))
		}
		if sc == nil {
			return
		}
		if int64(len(enc)) < int64(sc.M)*sc.BlockSize || sc.DataSize > int64(sc.K)*sc.BlockSize {
			t.Fatalf("accepted a header (%d+%d, block %d, data %d) its %d-byte file cannot hold",
				sc.K, sc.M, sc.BlockSize, sc.DataSize, len(enc))
		}
		if fixed, _, err := sc.Rebuild(nil); err == nil && crc32.ChecksumIEEE(fixed) != sc.DataCRC {
			t.Fatal("rebuilt content does not match the header's CRC")
		}
	})
}
