// Package rpc implements the GDMP Request Manager (Section 4.1): the
// client-server communication module that carries every GDMP request. The
// paper builds it on the Globus IO and Globus Data Conversion libraries and
// calls the result "a limited Remote Procedure Call functionality"; this
// package provides the same thing from scratch on top of net.Conn:
//
//   - an explicit big-endian wire codec (the data-conversion role), so
//     messages are byte-identical regardless of host architecture;
//   - length-prefixed request/response framing with method names;
//   - a server that authenticates every connection with a GSI handshake,
//     carries its frames over the TLS session the handshake yields, and
//     authorizes every method against an ACL before dispatch;
//   - typed error propagation from server handlers back to callers, with a
//     code for the kind of failure.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Maximum sizes enforced while decoding untrusted input.
const (
	maxStringLen = 16 << 20  // 16 MiB per string
	maxBytesLen  = 64 << 20  // 64 MiB per byte slice
	maxListLen   = 1 << 20   // 1 Mi elements per list
	maxFrameLen  = 128 << 20 // 128 MiB per frame
)

// ErrCorrupt is returned when a message violates the wire format.
var ErrCorrupt = errors.New("rpc: corrupt message")

// Encoder serializes values into the canonical big-endian wire form. The
// zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Uint32 appends a 32-bit big-endian integer.
func (e *Encoder) Uint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Uint64 appends a 64-bit big-endian integer.
func (e *Encoder) Uint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int64 appends a signed 64-bit integer.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.Uint32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Bytes32 appends a length-prefixed byte slice.
func (e *Encoder) Bytes32(v []byte) {
	e.Uint32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// StringList appends a length-prefixed list of strings.
func (e *Encoder) StringList(vs []string) {
	e.Uint32(uint32(len(vs)))
	for _, v := range vs {
		e.String(v)
	}
}

// Decoder reads values back out of a wire message.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps a received message.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Finish verifies the message was fully consumed without errors.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated", ErrCorrupt)
	}
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Uint32 reads a 32-bit big-endian integer.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[:4])
	d.b = d.b[4:]
	return v
}

// Uint64 reads a 64-bit big-endian integer.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[:8])
	d.b = d.b[8:]
	return v
}

// Int64 reads a signed 64-bit integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint32()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen || uint32(len(d.b)) < n {
		d.fail()
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}

// Bytes32 reads a length-prefixed byte slice. The returned slice is a copy.
func (d *Decoder) Bytes32() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > maxBytesLen || uint32(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return v
}

// StringList reads a length-prefixed list of strings.
func (d *Decoder) StringList() []string {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > maxListLen {
		d.fail()
		return nil
	}
	vs := make([]string, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		vs = append(vs, d.String())
		if d.err != nil {
			return nil
		}
	}
	return vs
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- framing -------------------------------------------------------------

// WriteFrame writes a length-prefixed frame to w. A frame of up to 64 KiB
// goes out in one Write: over a TLS session every Write is a record of its
// own, and a separate one for the 4-byte length would cost a seal and a
// syscall here and a read and an open at the peer, per frame. A larger
// frame is written after its length, not copied.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameLen {
		return fmt.Errorf("rpc: frame too large (%d bytes)", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if len(payload) <= 64<<10 {
		_, err := w.Write(append(hdr[:], payload...))
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r. The buffer grows only
// as bytes arrive, at most doubling what has already been read, so a peer
// that claims a large frame and sends little commits little memory.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameLen {
		return nil, fmt.Errorf("rpc: frame too large (%d bytes)", n)
	}
	buf := make([]byte, min(n, 64<<10))
	for read := 0; ; {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			return nil, err
		}
		if read = len(buf); read == n {
			return buf, nil
		}
		more := min(n-read, read)
		buf = slices.Grow(buf, more)[:read+more]
	}
}
