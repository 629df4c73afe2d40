// Package gridftp implements the data transfer protocol of Section 3.2: an
// FTP-derived control channel plus extended-block-mode data channels, with
// the feature list the paper enumerates:
//
//   - GSI public-key security on the control channel (every session is
//     mutually authenticated before any command runs, and its lines then
//     travel inside the TLS session the handshake set up);
//   - parallel data transfer: one host pair, multiple TCP streams;
//   - striped data transfer: the client fetches disjoint ranges of a
//     replicated file from several servers at once (see StripedGet);
//   - third-party control of data transfer (server-to-server moves driven
//     by a client that owns both control channels);
//   - partial file transfer (ERET/ESTO commands over byte ranges);
//   - automatic negotiation of TCP buffer/window sizes (SBUF);
//   - reliable and restartable transfers: extended-block offsets double as
//     restart markers, so an interrupted transfer resumes with exactly the
//     missing byte ranges (see ReliableGetFile and RangeSet);
//   - integrated instrumentation: the server emits 112 performance markers
//     on the control channel during transfers, and the client aggregates
//     per-stream statistics.
//
// Data integrity follows Section 4.3: TCP's 16-bit checksum is considered
// insufficient for very large transfers, so the Data Mover layers a CRC-32
// end-to-end verification (CKSM command) over every file moved.
//
// The wire protocol is self-contained rather than wuftpd-compatible: the
// control channel is CRLF-delimited "VERB args" lines with "NNN text"
// replies, and data channels carry 13-byte block headers (flags, 64-bit
// offset, 32-bit length) so every block is self-describing, exactly the
// property extended block mode provides in GridFTP.
package gridftp

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// Default transfer parameters.
const (
	// DefaultBlockSize is the payload carried per extended block.
	DefaultBlockSize = 64 * 1024

	// DefaultParallelism is the number of TCP streams when unspecified.
	DefaultParallelism = 1

	// MaxParallelism bounds the stream count a client may request.
	MaxParallelism = 64

	// tokenLen is the size of the random data-channel pairing token.
	tokenLen = 16
)

// Reply codes (FTP-flavored).
const (
	codeMarker    = 112 // in-transfer performance marker
	codeOpening   = 150 // about to open data connections
	codeOK        = 200
	codeStat      = 213 // SIZE / CKSM style single-value replies
	codeClosing   = 221
	codeComplete  = 226
	codePassive   = 229 // extended passive reply with endpoints
	codeFileOK    = 250
	codeBadCmd    = 500
	codeBadArgs   = 501
	codeDenied    = 530
	codeNoFile    = 550
	codeBusy      = 450 // transient overload: retry later
	codeProtoErr  = 425 // cannot open data connection
	codeLocalErr  = 451 // local processing error
	codeInterrupt = 426 // transfer aborted
)

// Errors surfaced by the client.
var (
	ErrTransferFailed = errors.New("gridftp: transfer failed")
	ErrChecksum       = errors.New("gridftp: checksum mismatch")
	ErrProtocol       = errors.New("gridftp: protocol error")
)

// ReplyError is a completed control-channel exchange that drew a failure
// reply: the server received the command and answered it. It unwraps to
// ErrProtocol, and carries the reply code so the retry layer can tell a
// permanent refusal (5yz: no such file, denied, bad command) from a
// transient one (4yz: data-connection trouble, local error) — re-dialing
// a server that has already said "no" deterministically cannot help.
type ReplyError struct {
	Verb string // command that drew the reply ("" for a generic exchange)
	Code int
	Text string
}

func (e *ReplyError) Error() string {
	if e.Verb == "" {
		return fmt.Sprintf("%v: %d %s", ErrProtocol, e.Code, e.Text)
	}
	return fmt.Sprintf("%v: %s: %d %s", ErrProtocol, e.Verb, e.Code, e.Text)
}

func (e *ReplyError) Unwrap() error { return ErrProtocol }

// permanentReply reports whether err is a server reply in the permanent
// negative (5yz) class.
func permanentReply(err error) bool {
	var re *ReplyError
	return errors.As(err, &re) && re.Code >= 500
}

// block header layout: 1 flag byte, 8 byte offset, 4 byte length.
const blockHeaderLen = 13

// Block flags.
const (
	flagEOD = 0x01 // no more blocks on this data connection
)

// putBlockHeader writes an extended block's header into hdr.
func putBlockHeader(hdr []byte, flags byte, offset int64, n int) {
	hdr[0] = flags
	binary.BigEndian.PutUint64(hdr[1:9], uint64(offset))
	binary.BigEndian.PutUint32(hdr[9:13], uint32(n))
}

// writeBlock sends one extended block (possibly empty, e.g. a bare EOD).
func writeBlock(w io.Writer, flags byte, offset int64, payload []byte) error {
	var hdr [blockHeaderLen]byte
	putBlockHeader(hdr[:], flags, offset, len(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readBlock reads one extended block into buf (grown as needed) and returns
// the flags, offset, and payload.
func readBlock(r io.Reader, buf []byte) (flags byte, offset int64, payload []byte, err error) {
	var hdr [blockHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	flags = hdr[0]
	offset = int64(binary.BigEndian.Uint64(hdr[1:9]))
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > 16*1024*1024 {
		return 0, 0, nil, fmt.Errorf("%w: oversized block (%d bytes)", ErrProtocol, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return flags, offset, payload, nil
}

// newToken mints a random pairing token binding data connections to their
// control session. The data connections themselves are clear (GridFTP's
// PROT C); the token is secret because it crosses only the protected
// control channel.
func newToken() (string, error) {
	b := make([]byte, tokenLen)
	if _, err := rand.Read(b); err != nil {
		return "", err
	}
	return hex.EncodeToString(b), nil
}

// control-channel line helpers ---------------------------------------------

// controlConn is one end of a control channel. Its writers are serialized
// by the session that owns it (the client's command mutex, the server's
// ctlMu), so the line buffer is reused.
type controlConn struct {
	r    *bufio.Reader
	w    io.Writer
	line []byte
}

func newControlConn(rw io.ReadWriter) *controlConn {
	return &controlConn{r: bufio.NewReaderSize(rw, maxLineLen), w: rw}
}

// sendLine writes one CRLF-terminated line in a single write. A line that
// itself holds a CR or LF is refused with ErrProtocol before a byte is
// written: its arguments would end the command early and smuggle a second
// one, and every verb passes here.
func (c *controlConn) sendLine(format string, args ...interface{}) error {
	c.line = fmt.Appendf(c.line[:0], format, args...)
	if bytes.ContainsAny(c.line, "\r\n") {
		return fmt.Errorf("%w: CR or LF inside control line %.80q", ErrProtocol, c.line)
	}
	c.line = append(c.line, '\r', '\n')
	_, err := c.w.Write(c.line)
	return err
}

// reply writes a "NNN text" response line.
func (c *controlConn) reply(code int, format string, args ...interface{}) error {
	return c.sendLine("%03d %s", code, fmt.Sprintf(format, args...))
}

// maxLineLen bounds one control line, so a peer that never sends '\n'
// cannot grow a buffer without limit. The longest line a command needs is
// a ranged one, "CKSM <off> <len> <path>": a 4-byte verb, two decimal
// int64s of at most 20 bytes each, a PATH_MAX (4096-byte) path, three
// spaces and CRLF: 4+2*20+4096+3+2 = 4145 bytes. It is the size of the
// line reader's buffer. (An error reply quoting a path within a few dozen
// bytes of PATH_MAX can be longer; its reader sees ErrProtocol instead.)
const maxLineLen = 4 + 2*20 + 4096 + 3 + 2

// readLine reads one line, stripping the terminator. A line longer than
// maxLineLen is ErrProtocol, on which the server ends the session.
func (c *controlConn) readLine() (string, error) {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return "", fmt.Errorf("%w: control line longer than %d bytes", ErrProtocol, maxLineLen)
	}
	if err != nil {
		return "", err
	}
	return string(bytes.TrimRight(line, "\r\n")), nil
}

// readReply parses a "NNN text" response.
func (c *controlConn) readReply() (code int, text string, err error) {
	line, err := c.readLine()
	if err != nil {
		return 0, "", err
	}
	if len(line) < 4 || line[3] != ' ' {
		return 0, "", fmt.Errorf("%w: malformed reply %.80q", ErrProtocol, line)
	}
	for i := 0; i < 3; i++ {
		if line[i] < '0' || line[i] > '9' {
			return 0, "", fmt.Errorf("%w: malformed reply %.80q", ErrProtocol, line)
		}
		code = code*10 + int(line[i]-'0')
	}
	return code, line[4:], nil
}
