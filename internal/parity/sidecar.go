package parity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"

	"gdmp/internal/durable"
)

// Suffix is appended to a data file's path to name its parity sidecar.
const Suffix = ".gdmppar"

// sidecarMagic opens every sidecar file; the trailing byte is the format
// version.
var sidecarMagic = [8]byte{'G', 'D', 'M', 'P', 'P', 'A', 'R', 1}

var (
	// ErrSidecarCorrupt means the sidecar file itself failed validation
	// (bad magic, header checksum, or impossible geometry) and cannot be
	// used for repair.
	ErrSidecarCorrupt = errors.New("parity: sidecar corrupt")

	// ErrTooDamaged means the file cannot be reconstructed locally: more
	// than m blocks are damaged (counting lost parity blocks), or the
	// reconstruction failed its end-to-end CRC check. Callers must fall
	// back to a whole-file re-pull; a partial or unverified rebuild is
	// never returned.
	ErrTooDamaged = errors.New("parity: damage exceeds local repair budget")
)

// Params configures the erasure code: K data blocks protected by M parity
// blocks. The zero value disables parity entirely.
type Params struct {
	K int
	M int
}

// DefaultK and DefaultM are the stock geometry: 8 data blocks + 2 parity
// blocks tolerates any 2-block damage for a 25% space overhead.
const (
	DefaultK = 8
	DefaultM = 2
)

// Enabled reports whether parity sidecars should be generated at all.
func (p Params) Enabled() bool { return p.K > 0 && p.M > 0 }

// Validate rejects geometries the GF(2^8) code cannot express.
func (p Params) Validate() error {
	if p.Enabled() && p.K+p.M > 255 {
		return fmt.Errorf("parity: invalid geometry k=%d m=%d (need k,m >= 1 and k+m <= 255)", p.K, p.M)
	}
	return nil
}

// SidecarPath names the parity sidecar that lives next to a data file.
func SidecarPath(dataPath string) string { return dataPath + Suffix }

// IsSidecar reports whether a file name is a parity sidecar.
func IsSidecar(name string) bool { return strings.HasSuffix(name, Suffix) }

// Sidecar is the in-memory form of a parity sidecar: the code geometry and
// per-block CRCs for damage localisation. Parity holds the payload of a
// sidecar made by Create or CreateFile; a sidecar from Load leaves it nil
// and reads the payload from its file, chunk by chunk, when it rebuilds.
//
// On disk the layout is little-endian and self-checksummed:
//
//	magic+version  [8]byte  "GDMPPAR\x01"
//	k, m           uint16 each
//	blockSize      uint64
//	dataSize       uint64
//	dataCRC        uint32   IEEE CRC of the whole data file
//	dataCRCs       k × uint32  per-block CRCs over the unpadded byte ranges
//	parityCRCs     m × uint32  per-block CRCs over the parity payload
//	headerCRC      uint32   IEEE CRC of all preceding bytes
//	parity payload m × blockSize bytes
//
// Data block i covers file bytes [i·blockSize, min((i+1)·blockSize, size));
// the last block is zero-padded only for the field arithmetic, never for the
// CRCs, so the per-block CRCs compare directly against a streaming
// block-digest of the raw file.
type Sidecar struct {
	K          int
	M          int
	BlockSize  int64
	DataSize   int64
	DataCRC    uint32
	DataCRCs   []uint32
	ParityCRCs []uint32
	Parity     [][]byte

	path string // the file Load read the header from
}

// headerLen is the size of the on-disk header of a k+m sidecar.
func headerLen(k, m int) int64 { return 8 + 2 + 2 + 8 + 8 + 4 + 4*int64(k+m) + 4 }

// encode is the one encoder: a stripe walk over the k data blocks of src
// that writes the m parity blocks to payload, block r at base + r·blockSize
// (a nil payload keeps them in memory, as Sidecar.Parity), and returns the
// sidecar describing them. Every CRC comes out of the same walk: the
// per-block ones directly, the whole-file one by combining them.
func encode(src io.ReaderAt, size int64, k, m int, payload io.WriterAt, base int64) (*Sidecar, error) {
	if p := (Params{K: k, M: m}); !p.Enabled() || p.Validate() != nil || size <= 0 {
		return nil, fmt.Errorf("parity: cannot protect %d bytes with a %d+%d code", size, k, m)
	}
	bs := (size-1)/int64(k) + 1
	sc := &Sidecar{K: k, M: m, BlockSize: bs, DataSize: size}
	var mem memory
	if payload == nil {
		mem = make(memory, int64(m)*bs)
		payload = mem
	}
	mat := codingMatrix(k, m)
	in, out := make([]*block, k), make([]*block, m)
	for i := range in {
		in[i] = &block{src: src, off: int64(i) * bs, n: blockLen(i, bs, size)}
	}
	for r := range out {
		out[r] = &block{row: mat[k+r], dst: payload, off: base + int64(r)*bs, n: bs}
	}
	if err := stripe(bs, in, out); err != nil {
		return nil, err
	}
	for _, b := range in {
		sc.DataCRCs = append(sc.DataCRCs, b.crc)
		sc.DataCRC = crcCombine(sc.DataCRC, b.crc, b.n)
	}
	for _, b := range out {
		sc.ParityCRCs = append(sc.ParityCRCs, b.crc)
		if mem != nil {
			sc.Parity = append(sc.Parity, mem[b.off:b.off+bs])
		}
	}
	return sc, nil
}

// Create computes the parity sidecar for a file's content, payload in
// memory. The content must be non-empty: zero-byte files have nothing to
// protect and callers skip them.
func Create(data []byte, k, m int) (*Sidecar, error) {
	return encode(bytes.NewReader(data), int64(len(data)), k, m, nil, 0)
}

// CreateFile is Create over a file on disk, read once through the stripe
// loop.
func CreateFile(dataPath string, k, m int) (*Sidecar, error) {
	f, size, err := openSized(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return encode(f, size, k, m, nil, 0)
}

// ProtectFile encodes dataPath's sidecar file-to-file: parity chunks go
// straight into the staged sidecar, the header last, and nothing larger than
// the stripe loop's chunk set is held in memory. When wantCRC (the cataloged
// hex CRC of the content) is non-empty and the bytes read do not hash to it,
// nothing is written: a sidecar must not enshrine rot. It returns the hex
// CRC of the sidecar file, which the caller journals so recovery can tell a
// current sidecar from a stale one.
func ProtectFile(dataPath string, k, m int, wantCRC string) (crcHex string, err error) {
	src, size, err := openSized(dataPath)
	if err != nil {
		return "", err
	}
	defer src.Close()
	// No directory fsync makes the rename durable, on purpose: the journaled
	// CRC is checked at load, so a rename lost to a power cut costs one
	// regeneration by scrub, never a wrong repair.
	err = durable.WriteAtomic(SidecarPath(dataPath), func(f *os.File) error {
		sc, err := encode(src, size, k, m, f, headerLen(k, m))
		if err != nil {
			return err
		}
		if got := fmt.Sprintf("%08x", sc.DataCRC); wantCRC != "" && got != wantCRC {
			return fmt.Errorf("parity: content has crc %s, catalog says %s", got, wantCRC)
		}
		hdr := sc.header()
		sum := crc32.ChecksumIEEE(hdr)
		for _, c := range sc.ParityCRCs {
			sum = crcCombine(sum, c, sc.BlockSize)
		}
		crcHex = fmt.Sprintf("%08x", sum)
		_, err = f.WriteAt(hdr, 0)
		return err
	})
	return crcHex, err
}

func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// blockLen is the unpadded length of data block i.
func blockLen(i int, bs, size int64) int64 {
	return max(0, min(bs, size-int64(i)*bs))
}

// header renders the sidecar's on-disk header, its own checksum included.
func (sc *Sidecar) header() []byte {
	le := binary.LittleEndian
	b := append(make([]byte, 0, headerLen(sc.K, sc.M)), sidecarMagic[:]...)
	b = le.AppendUint16(b, uint16(sc.K))
	b = le.AppendUint16(b, uint16(sc.M))
	b = le.AppendUint64(b, uint64(sc.BlockSize))
	b = le.AppendUint64(b, uint64(sc.DataSize))
	b = le.AppendUint32(b, sc.DataCRC)
	for _, c := range sc.DataCRCs {
		b = le.AppendUint32(b, c)
	}
	for _, c := range sc.ParityCRCs {
		b = le.AppendUint32(b, c)
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// WriteFile persists an in-memory sidecar atomically (stage to ".part",
// fsync, rename) and returns the hex CRC of the sidecar file itself.
func (sc *Sidecar) WriteFile(path string) (string, error) {
	var sum uint32
	err := durable.WriteAtomic(path, func(f *os.File) error {
		for _, p := range append([][]byte{sc.header()}, sc.Parity...) {
			sum = crc32.Update(sum, crc32.IEEETable, p)
			if _, err := f.Write(p); err != nil {
				return err
			}
		}
		return nil
	})
	return fmt.Sprintf("%08x", sum), err
}

// Load reads and validates a sidecar's header — magic, header checksum,
// geometry, and the payload length the header implies against the file's
// size — and streams the file once for its CRC; the payload itself stays on
// disk. Per-parity-block CRCs are deliberately NOT enforced here — a rebuild
// treats a rotted parity block as one more erasure rather than giving up on
// the whole sidecar. The returned hex CRC is of the entire file, for
// comparison against the journalled value.
func Load(path string) (*Sidecar, string, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	whole := &block{src: f, n: size}
	if err := stripe(size, []*block{whole}, nil); err != nil {
		return nil, "", err
	}
	fileCRC := fmt.Sprintf("%08x", whole.crc)
	hdr := make([]byte, min(size, headerLen(255, 0)))
	if _, err := f.ReadAt(hdr, 0); err != nil && err != io.EOF {
		return nil, fileCRC, err
	}
	sc, err := parseHeader(hdr, size)
	if err != nil {
		return nil, fileCRC, err
	}
	sc.path = path
	return sc, fileCRC, nil
}

// parseHeader decodes and validates a sidecar header against the size of the
// file it came from. Every length is derived by division from the two sizes
// that are real — the header bytes in hand and the file size — so no header
// field is multiplied or added before it has been bounded, and nothing is
// allocated from a size the header merely claims.
func parseHeader(enc []byte, fileSize int64) (*Sidecar, error) {
	le := binary.LittleEndian
	if int64(len(enc)) < headerLen(0, 0) || !bytes.Equal(enc[:8], sidecarMagic[:]) {
		return nil, ErrSidecarCorrupt
	}
	k, m := int(le.Uint16(enc[8:10])), int(le.Uint16(enc[10:12]))
	hl := headerLen(k, m)
	if k < 1 || m < 1 || k+m > 255 || int64(len(enc)) < hl ||
		crc32.ChecksumIEEE(enc[:hl-4]) != le.Uint32(enc[hl-4:hl]) {
		return nil, ErrSidecarCorrupt
	}
	sc := &Sidecar{K: k, M: m,
		BlockSize: int64(le.Uint64(enc[12:20])),
		DataSize:  int64(le.Uint64(enc[20:28])),
		DataCRC:   le.Uint32(enc[28:32]),
	}
	payload := fileSize - hl
	if sc.DataSize <= 0 || sc.BlockSize != (sc.DataSize-1)/int64(k)+1 ||
		payload%int64(m) != 0 || payload/int64(m) != sc.BlockSize {
		return nil, ErrSidecarCorrupt
	}
	for off := int64(32); off < hl-4; off += 4 {
		sc.DataCRCs = append(sc.DataCRCs, le.Uint32(enc[off:off+4]))
	}
	sc.DataCRCs, sc.ParityCRCs = sc.DataCRCs[:k:k], sc.DataCRCs[k:]
	return sc, nil
}

// DamagedBlocks compares a streaming per-block digest of the data file (as
// produced by scrub.BlockCRC32File with this sidecar's BlockSize) against
// the recorded per-block CRCs and returns the damaged data-block indices.
// A short digest slice marks every missing tail block damaged.
func (sc *Sidecar) DamagedBlocks(blockCRCs []uint32) []int {
	var bad []int
	for i := 0; i < sc.K; i++ {
		if blockLen(i, sc.BlockSize, sc.DataSize) == 0 {
			// Degenerate geometry (more blocks than bytes): block i
			// holds no data and cannot be damaged.
			continue
		}
		if i >= len(blockCRCs) || blockCRCs[i] != sc.DataCRCs[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// Rebuild reconstructs the original file content from the (possibly
// damaged) bytes in data plus the sidecar's parity blocks. It localises the
// damage itself from the per-block CRCs, counts rotted parity blocks as
// erasures, and refuses (ErrTooDamaged) whenever more than M blocks are
// gone or the reconstruction fails its end-to-end CRC — a wrong "repair" is
// never returned. On success it returns the verified content plus the
// indices of the data blocks it rebuilt.
func (sc *Sidecar) Rebuild(data []byte) ([]byte, []int, error) {
	out := make(memory, sc.DataSize)
	rebuilt, err := sc.rebuild(bytes.NewReader(data), int64(len(data)), out)
	if err != nil {
		return nil, nil, err
	}
	return out, rebuilt, nil
}

// RebuildFile is Rebuild file-to-file and in place: the repaired content is
// staged next to dataPath chunk by chunk and renamed over the damaged file
// only once every block and the whole file have verified, so a crash leaves
// the original bytes plus quarantinable ".part" debris, never a torn file.
func (sc *Sidecar) RebuildFile(dataPath string) (rebuilt []int, err error) {
	src, size, err := openSized(dataPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	// No directory fsync either: scrub holds a replica to its catalog CRC.
	err = durable.WriteAtomic(dataPath, func(f *os.File) error {
		rebuilt, err = sc.rebuild(src, size, f)
		return err
	})
	return rebuilt, err
}

// rebuild is the one reconstruct path: two stripe walks over src (srcSize
// bytes of possibly damaged content) and the parity payload. The first only
// checksums, to find which blocks survive: a block is lost when its CRC is
// wrong, a data block also when the file ends before it does. The second
// runs the inverse of the first k surviving coding-matrix rows — healthy
// data blocks copied through to dst, lost ones recomputed — and every
// block's CRC and their combination must match the header before it counts.
func (sc *Sidecar) rebuild(src io.ReaderAt, srcSize int64, dst io.WriterAt) ([]int, error) {
	k, m, bs := sc.K, sc.M, sc.BlockSize
	if srcSize > sc.DataSize {
		// Grown files are not bit-rot; nothing sane to rebuild.
		return nil, fmt.Errorf("%w: file grew past recorded size", ErrTooDamaged)
	}
	var payload *os.File
	if sc.Parity == nil {
		var err error
		if payload, err = os.Open(sc.path); err != nil {
			return nil, err
		}
		defer payload.Close()
	}
	all := make([]*block, k+m) // coding-matrix row order: data, then parity
	var present []*block
	for i := range all {
		switch {
		case i < k:
			all[i] = &block{src: src, off: int64(i) * bs, n: blockLen(i, bs, sc.DataSize)}
			if all[i].n > 0 && all[i].off+all[i].n > srcSize {
				all[i].src = nil
				continue
			}
		case payload == nil:
			all[i] = &block{src: bytes.NewReader(sc.Parity[i-k]), n: bs}
		default:
			all[i] = &block{src: payload, off: headerLen(k, m) + int64(i-k)*bs, n: bs}
		}
		present = append(present, all[i])
	}
	if err := stripe(bs, present, nil); err != nil {
		return nil, err
	}
	want := slices.Concat(sc.DataCRCs, sc.ParityCRCs)
	mat := codingMatrix(k, m)
	var in, out []*block
	var rows matrix
	var missing []int
	for i, b := range all {
		if b.src != nil && b.crc == want[i] {
			if len(in) < k {
				in, rows = append(in, b), append(rows, mat[i])
			}
		} else if i < k {
			out, missing = append(out, b), append(missing, i)
		}
		if i < k {
			b.dst = dst
		}
	}
	if len(in) < k { // more than m of the k+m blocks are gone
		return nil, fmt.Errorf("%w: %d healthy blocks of %d, need %d", ErrTooDamaged, len(in), k+m, k)
	}
	dec, singular := rows.invert()
	if singular {
		// Cannot happen with the Vandermonde-derived coding matrix; treat
		// it as damage rather than panicking on corrupt input.
		return nil, fmt.Errorf("%w: singular decode matrix", ErrTooDamaged)
	}
	for j, b := range out {
		b.row = dec[missing[j]]
	}
	if err := stripe(bs, in, out); err != nil {
		return nil, err
	}
	var sum uint32
	for i, b := range all[:k] {
		if b.crc != want[i] {
			return nil, fmt.Errorf("%w: rebuilt block %d failed its CRC", ErrTooDamaged, i)
		}
		sum = crcCombine(sum, b.crc, b.n)
	}
	if sum != sc.DataCRC {
		return nil, fmt.Errorf("%w: rebuilt content failed end-to-end CRC", ErrTooDamaged)
	}
	return missing, nil
}
