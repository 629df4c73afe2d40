// Package parity implements the erasure-coded local-repair layer: a
// systematic Reed-Solomon codec over GF(2^8) plus the checksummed parity
// sidecar written next to every published or pool-landed file. The scrubber
// uses a sidecar to rebuild up to m damaged blocks from the k surviving data
// blocks and m parity blocks without contacting any peer — the par2cron
// pattern SNIPPETS.md excerpts — and falls back to a WAN re-pull only when
// damage exceeds the parity budget or the sidecar itself is corrupt.
package parity

import (
	"encoding/binary"
	"sync"
)

// GF(2^8) arithmetic with the AES-adjacent primitive polynomial x^8 + x^4 +
// x^3 + x^2 + 1 (0x11d), the polynomial every RS storage codec uses. Every
// multiplication reads gfMulTable, the full 256 × 256 product table
// (64 KiB): one load, no branch on the data. It is a variable initializer,
// not an init function, so every init in the package (the SIMD kernel's
// tables among them) runs after it.

const gfPoly = 0x11d

var gfMulTable = mulTable()

func mulTable() (t [256][256]byte) {
	for a := range t {
		row := &t[a]
		for b := 1; b < 256; b++ {
			// a·b = (a·⌊b/2⌋)·x, plus a when b is odd: one doubling of an
			// earlier entry, reduced by the polynomial when it overflows.
			d := int(row[b>>1]) << 1
			if d >= 256 {
				d ^= gfPoly
			}
			if b&1 != 0 {
				d ^= a
			}
			row[b] = byte(d)
		}
	}
	return t
}

func gfMul(a, b byte) byte { return gfMulTable[a][b] }

func gfInv(a byte) byte {
	for b, p := range gfMulTable[a] {
		if p == 1 {
			return byte(b)
		}
	}
	panic("parity: division by zero in GF(2^8)")
}

// gfMulSliceGeneric accumulates c*in into out (out[i] ^= c*in[i]) — the
// portable form of gfMulSlice, the inner loop of both encoding and
// reconstruction, and the oracle the SIMD kernel is tested against. Eight
// products are looked up in c's row of the table, assembled into one word
// and XORed into out with a single load and store.
func gfMulSliceGeneric(c byte, in, out []byte) {
	if c == 0 {
		return
	}
	t := &gfMulTable[c]
	out = out[:len(in)]
	n := len(in) &^ 7
	for i := 0; i < n; i += 8 {
		s, o := in[i:i+8:i+8], out[i:i+8:i+8]
		v := uint64(t[s[0]]) | uint64(t[s[1]])<<8 | uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
			uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 | uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
		binary.LittleEndian.PutUint64(o, binary.LittleEndian.Uint64(o)^v)
	}
	for i := n; i < len(in); i++ {
		out[i] ^= t[in[i]]
	}
}

// matrix is a dense byte matrix over GF(2^8), rows × cols.
type matrix [][]byte

func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	for i := range m {
		m[i] = make([]byte, cols)
	}
	return m
}

// mul returns a×b.
func (a matrix) mul(b matrix) matrix {
	out := newMatrix(len(a), len(b[0]))
	for r, row := range a {
		for k, c := range row {
			gfMulSlice(c, b[k], out[r])
		}
	}
	return out
}

// invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or singular=true when no inverse exists.
func (a matrix) invert() (matrix, bool) {
	n := len(a)
	work := newMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work[i], a[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, true
		}
		work[col], work[pivot] = work[pivot], work[col]
		inv := gfInv(work[col][col])
		for j, v := range work[col] {
			work[col][j] = gfMul(v, inv)
		}
		for r := range work {
			if r != col {
				gfMulSlice(work[r][col], work[col], work[r])
			}
		}
	}
	out := make(matrix, n)
	for i := 0; i < n; i++ {
		out[i] = work[i][n : 2*n]
	}
	return out, false
}

// codingMatrices caches codingMatrix by geometry. A matrix is shared
// read-only (invert copies its input). A site codes with one geometry, and
// a new geometry that finds the cache full empties it, so the cache stays
// small whatever geometries the sidecars on disk name.
var codingMatrices = struct {
	sync.Mutex
	byGeometry map[[2]int]matrix
}{byGeometry: make(map[[2]int]matrix)}

// codingMatrix returns the systematic (k+m)×k encoding matrix, built once
// per geometry.
func codingMatrix(k, m int) matrix {
	c := &codingMatrices
	c.Lock()
	defer c.Unlock()
	key := [2]int{k, m}
	mat, ok := c.byGeometry[key]
	if !ok {
		if len(c.byGeometry) >= 8 {
			clear(c.byGeometry)
		}
		mat = buildCodingMatrix(k, m)
		c.byGeometry[key] = mat
	}
	return mat
}

// buildCodingMatrix builds the systematic (k+m)×k encoding matrix: a
// Vandermonde matrix row-reduced so the top k×k block is the identity. The
// Vandermonde property survives the reduction, so every k×k submatrix
// formed from any k of the k+m rows is invertible — which is exactly what
// lets reconstruction pick an arbitrary set of k surviving blocks.
func buildCodingMatrix(k, m int) matrix {
	vand := newMatrix(k+m, k)
	for r := 0; r < k+m; r++ {
		e := byte(1)
		for c := 0; c < k; c++ {
			vand[r][c] = e
			e = gfMul(e, byte(r+1))
		}
	}
	inv, singular := vand[:k].invert()
	if singular {
		// Cannot happen: a k×k Vandermonde matrix with distinct
		// evaluation points 1..k is always invertible.
		panic("parity: singular Vandermonde top block")
	}
	return vand.mul(inv)
}
