package scrub

import (
	"context"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"gdmp/internal/parity"
)

// Limiter is a token-bucket byte-rate limiter. The scrubber reads every
// cataloged replica back from disk; unpaced, a full pass would compete
// with live GridFTP transfers for the same spindles. Wait debits the
// bucket before each read so the scan proceeds at a configured bytes/s
// and never starves transfers. A nil *Limiter is unlimited.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter admitting bytesPerSec. The bucket holds one
// second of budget, so short bursts (a small file) pass undelayed while
// the long-run rate converges on bytesPerSec. bytesPerSec <= 0 returns
// nil: no limiting.
func NewLimiter(bytesPerSec int64) *Limiter {
	if bytesPerSec <= 0 {
		return nil
	}
	r := float64(bytesPerSec)
	return &Limiter{rate: r, burst: r, tokens: r, last: time.Now()}
}

// Wait blocks until n bytes of budget are available or ctx is done. Debts
// larger than the bucket are amortized: the caller is delayed for the
// full deficit, keeping the long-run rate correct for any chunk size.
func (l *Limiter) Wait(ctx context.Context, n int) error {
	if l == nil || n <= 0 {
		return ctx.Err()
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.tokens -= float64(n)
	deficit := -l.tokens
	l.mu.Unlock()
	if deficit <= 0 {
		return nil
	}
	delay := time.Duration(deficit / l.rate * float64(time.Second))
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scanChunk is the read granularity of a scrub: small enough that the
// limiter paces smoothly, large enough that syscall overhead is noise.
const scanChunk = 256 << 10

// BlockCRC32File recomputes the IEEE CRC-32 of a file at the limiter's
// pace, returning the checksum, the CRC of every blockSize-sized block
// (the last block covers only the remaining bytes; none when blockSize
// <= 0), and how many bytes were read, all in one pass. The parity layer
// compares the block digests against a sidecar's recorded CRCs to localise
// damage to individual blocks instead of condemning the whole file. Each
// byte is hashed once: with blocks, the whole-file CRC is theirs combined
// (parity.CRCCombine). ctx aborts the scan between chunks (shutdown must
// not wait out a long file).
func BlockCRC32File(ctx context.Context, path string, blockSize int64, lim *Limiter) (uint32, []uint32, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, 0, err
	}
	defer f.Close()
	var (
		sum, block     uint32 // the whole file's CRC; the current block's
		blocks         []uint32
		inBlock, total int64
	)
	buf := make([]byte, scanChunk)
	for {
		if err := ctx.Err(); err != nil {
			return 0, nil, total, err
		}
		n, err := f.Read(buf)
		if n > 0 {
			if werr := lim.Wait(ctx, n); werr != nil {
				return 0, nil, total, werr
			}
			if blockSize <= 0 {
				sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
			}
			for chunk := buf[:n]; blockSize > 0 && len(chunk) > 0; {
				take := min(blockSize-inBlock, int64(len(chunk)))
				block = crc32.Update(block, crc32.IEEETable, chunk[:take])
				chunk = chunk[take:]
				if inBlock += take; inBlock == blockSize {
					blocks = append(blocks, block)
					sum = parity.CRCCombine(sum, block, blockSize)
					block, inBlock = 0, 0
				}
			}
			total += int64(n)
		}
		if err == io.EOF {
			if inBlock > 0 {
				blocks = append(blocks, block)
				sum = parity.CRCCombine(sum, block, inBlock)
			}
			return sum, blocks, total, nil
		}
		if err != nil {
			return 0, nil, total, err
		}
	}
}
