package parity

import (
	"hash/crc32"
	"io"
	"sync"
)

// chunkSize is how much of each block one step of the stripe loop holds. A
// walk over a k+m code keeps one pooled slab of k+m chunks and nothing else,
// whatever the file size (and less for a file smaller than k chunks).
const chunkSize = 64 << 10

var slabPool sync.Pool // of *[]byte

// block is one code block taking part in a stripe walk: an input is read
// from src, an output is row · inputs, and either is written to dst when it
// has one, all at off. The first n bytes are real: the rest of the stripe's
// block size is zero padding that exists for the field arithmetic only,
// never for a CRC or on disk.
type block struct {
	src io.ReaderAt
	row []byte // coefficients over the walk's inputs, in order
	dst io.WriterAt
	off int64
	n   int64
	crc uint32 // IEEE CRC of the n real bytes, filled by the walk
}

// stripe is the one loop that encodes, checks and reconstructs: it walks all
// blocks in lock-step, chunkSize bytes of each per step — read the inputs,
// accumulate the outputs, advance every block's running CRC, write what has
// a destination. Each input byte is read exactly once.
func stripe(blockSize int64, in, out []*block) error {
	step := int(min(chunkSize, blockSize))
	slab, _ := slabPool.Get().(*[]byte)
	if need := step * (len(in) + len(out)); slab == nil || len(*slab) < need {
		slab = new([]byte)
		*slab = make([]byte, need)
	}
	defer slabPool.Put(slab)
	buf := func(i int, n int64) []byte { return (*slab)[i*step:][:n] }
	for pos := int64(0); pos < blockSize; pos += chunkSize {
		n := min(chunkSize, blockSize-pos)
		for i, b := range in {
			chunk := buf(i, n)
			data := chunk[:max(0, min(n, b.n-pos))]
			if len(data) > 0 {
				if got, err := b.src.ReadAt(data, b.off+pos); got < len(data) {
					return err
				}
			}
			clear(chunk[len(data):])
			if err := b.emit(data, pos); err != nil {
				return err
			}
		}
		for j, b := range out {
			chunk := buf(len(in)+j, n)
			clear(chunk)
			for c, coef := range b.row {
				gfMulSlice(coef, buf(c, n), chunk)
			}
			if err := b.emit(chunk[:max(0, min(n, b.n-pos))], pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit folds one chunk of real bytes into the block's CRC, which every walk
// starts afresh, and writes it through when the block has a destination.
func (b *block) emit(p []byte, pos int64) error {
	if pos == 0 {
		b.crc = 0
	}
	b.crc = crc32.Update(b.crc, crc32.IEEETable, p)
	if b.dst == nil || len(p) == 0 {
		return nil
	}
	_, err := b.dst.WriteAt(p, b.off+pos)
	return err
}

// memory is a []byte as a stripe destination, for the in-memory forms.
type memory []byte

func (m memory) WriteAt(p []byte, off int64) (int, error) { return copy(m[off:], p), nil }

// CRCCombine returns the IEEE CRC of a‖b given crc(a), crc(b) and len(b) —
// zlib's crc32_combine, which hash/crc32 does not export. It lets the stripe
// loop, which sees a file as k interleaved block streams, produce the
// whole-file CRC (Load the sidecar-file CRC, and the scrub a file's CRC
// from its block CRCs) without a second pass. Appending len(b) zero bytes
// to a multiplies crc(a) by
// x^(8·len(b)) modulo the CRC polynomial; that power is the product of the
// tabled x^(2^n) its bits select (zlib ≥ 1.2.12's x2nmodp), at most 64
// multiplications where squaring a 32×32 GF(2) operator per bit took ~1,000.
func CRCCombine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	p := uint32(1) << 31 // x^0, bit-reflected
	for n, k := uint64(lenB), 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2nModP[k&31], p)
		}
	}
	return multModP(p, crcA) ^ crcB
}

// x2nModP[n] is x^(2^n) modulo the CRC-32 polynomial, bit-reflected.
// x^(2^32) is x again (TestX2nModPWraps), so 32 entries cover every
// exponent.
var x2nModP = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for n := range t {
		t[n] = p
		p = multModP(p, p)
	}
	return t
}()

// multModP multiplies a and b modulo the CRC-32 polynomial, both
// bit-reflected (the top bit is x^0).
func multModP(a, b uint32) (p uint32) {
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}
