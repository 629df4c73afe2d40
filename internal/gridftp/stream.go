package gridftp

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// The extended-block engine: every transfer in either direction, on the
// client or the server, is one sendBlocks facing one recvBlocks. Callers
// own the control-channel dialogue and their metrics; the engine owns the
// framing loop, the per-stream goroutines and the byte counts.

// blockFunc observes one payload block as it is moved: its file offset and
// length, and the transfer's running byte total across all streams. Streams
// call it concurrently.
type blockFunc func(off, n, total int64)

// eachStream runs fn once per data connection, all at once, and waits for
// every stream to finish. fn reports each payload block through moved.
// It returns the bytes each stream moved and the lowest-numbered stream's
// error.
func eachStream(conns []net.Conn, onBlock blockFunc, fn func(i int, c net.Conn, moved func(off, n int64)) error) ([]int64, error) {
	perStream := make([]int64, len(conns))
	errs := make([]error, len(conns))
	var total atomic.Int64
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := fn(i, c, func(off, n int64) {
				perStream[i] += n
				if t := total.Add(n); onBlock != nil {
					onBlock(off, n, t)
				}
			})
			if err != nil {
				errs[i] = fmt.Errorf("stream %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return perStream, err
		}
	}
	return perStream, nil
}

// recvBlocks reads extended blocks from every data connection into dst
// until each stream has sent its end-of-data block. window is the byte
// range the transfer command named: block offsets come from the peer, so a
// payload block that does not lie inside it fails the stream with
// ErrProtocol before anything is written.
func recvBlocks(conns []net.Conn, dst io.WriterAt, window Range, onBlock blockFunc) ([]int64, error) {
	return eachStream(conns, onBlock, func(_ int, c net.Conn, moved func(off, n int64)) error {
		var buf []byte
		for {
			flags, off, payload, err := readBlock(c, buf)
			if err != nil {
				return err
			}
			buf = payload[:cap(payload)]
			if n := int64(len(payload)); n > 0 {
				// off <= window.End here, so the subtraction cannot overflow.
				if off < window.Start || off > window.End || n > window.End-off {
					return fmt.Errorf("%w: block [%d,+%d) outside [%d,%d)", ErrProtocol, off, n, window.Start, window.End)
				}
				if _, err := dst.WriteAt(payload, off); err != nil {
					return fmt.Errorf("write at %d: %w", off, err)
				}
				moved(off, n)
			}
			if flags&flagEOD != 0 {
				return nil
			}
		}
	})
}

// sendBlocks cuts ranges of src into blocks of at most blockSize bytes and
// writes them to the data connections, range i going to stream i modulo
// the stream count, each block as one Write of its header and payload.
// Every stream ends with a bare end-of-data block carrying the offset it
// stopped at.
func sendBlocks(conns []net.Conn, src io.ReaderAt, ranges []Range, blockSize int, onBlock blockFunc) ([]int64, error) {
	return eachStream(conns, onBlock, func(stream int, c net.Conn, moved func(off, n int64)) error {
		var longest, pos int64 // the buffer is sized to the work: a 4 KiB file needs no 64 KiB block
		for i := stream; i < len(ranges); i += len(conns) {
			longest = max(longest, ranges[i].End-ranges[i].Start)
		}
		buf := make([]byte, blockHeaderLen+min(int64(blockSize), longest))
		payload := buf[blockHeaderLen:]
		for i := stream; i < len(ranges); i += len(conns) {
			for pos = ranges[i].Start; pos < ranges[i].End; {
				chunk := min(int64(len(payload)), ranges[i].End-pos)
				if _, err := src.ReadAt(payload[:chunk], pos); err != nil {
					return fmt.Errorf("read at %d: %w", pos, err)
				}
				putBlockHeader(buf, 0, pos, int(chunk))
				if _, err := c.Write(buf[:blockHeaderLen+chunk]); err != nil {
					return fmt.Errorf("send at %d: %w", pos, err)
				}
				moved(pos, chunk)
				pos += chunk
			}
		}
		return writeBlock(c, flagEOD, pos, nil)
	})
}
