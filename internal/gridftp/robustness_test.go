package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gdmp/internal/gsi"
	"gdmp/internal/wan"
)

// rawSession opens an authenticated control connection and returns reader/
// writer for speaking the protocol by hand.
func rawSession(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	peer, err := gsi.Handshake(conn, cred(t, "raw/"+t.Name()), roots(t), true)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(peer.Conn)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "220") {
		t.Fatalf("banner = %q, %v", line, err)
	}
	return peer.Conn, r
}

func sendLine(t *testing.T, conn net.Conn, line string) {
	t.Helper()
	if _, err := io.WriteString(conn, line+"\r\n"); err != nil {
		t.Fatal(err)
	}
}

func expectCode(t *testing.T, r *bufio.Reader, code string) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if !strings.HasPrefix(line, code) {
		t.Fatalf("reply = %q, want %s...", strings.TrimSpace(line), code)
	}
	return line
}

func TestServerRejectsGarbageCommands(t *testing.T) {
	addr, _ := startServer(t, nil)
	conn, r := rawSession(t, addr)
	cases := []struct {
		send string
		code string
	}{
		{"FROBNICATE now", "500"},
		{"SBUF notanumber", "501"},
		{"SBUF 1", "501"},
		{"OPTS PARALLEL 0", "501"},
		{"OPTS PARALLEL 9999", "501"},
		{"OPTS NOSUCH 1", "501"},
		{"ERET x y z", "501"},
		{"ERET 0 10", "501"},
		{"STOR 10", "501"},
		{"STOR -5 path", "501"},
		{"PORT onlyone", "501"},
		{"PORT tok not-an-addr", "501"},
		{"SIZE", "530"}, // empty path fails authorization... or read denied
		{"NOOP", "200"}, // the session survives all of the above
	}
	for _, tc := range cases {
		sendLine(t, conn, tc.send)
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("after %q: %v", tc.send, err)
		}
		if !strings.HasPrefix(line, tc.code[:1]) {
			t.Errorf("%q -> %q, want %sxx", tc.send, strings.TrimSpace(line), tc.code[:1])
		}
	}
	sendLine(t, conn, "QUIT")
	expectCode(t, r, "221")
}

// TestControlLineBounded: a peer that never sends '\n' gets a protocol
// error after maxLineLen bytes, not a buffer grown to whatever it sends —
// on the client's reply reader and on the server, which ends the session.
func TestControlLineBounded(t *testing.T) {
	flood := strings.Repeat("x", 1<<20)
	var err error
	got := allocated(func() {
		_, _, err = newControlConn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(flood), io.Discard}).readReply()
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("1 MiB without a newline: err = %v, want ErrProtocol", err)
	}
	if got >= 64<<10 {
		t.Fatalf("1 MiB without a newline allocated %d bytes", got)
	}

	addr, _ := startServer(t, nil)
	conn, r := rawSession(t, addr)
	go io.WriteString(conn, flood) // fails once the server hangs up
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server kept the session after 1 MiB without a newline: %q, %v", line, err)
	}
}

// TestControlLineRefusesCRLF: paths reach the client from catalog PFNs any
// site can register, so one holding CR or LF must not end its command and
// smuggle a second one under the client's identity. The line is refused
// before a byte is written: the server never answers it, the victim file
// survives, and the session stays in step for the next command.
func TestControlLineRefusesCRLF(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "victim.db", 100, 80)
	cl := dial(t, addr)
	for _, send := range []func() error{
		func() error { _, err := cl.Size("nothere.db\r\nSTOR victim.db"); return err },
		func() error { _, err := cl.Checksum("nothere.db\nSTOR victim.db"); return err },
	} {
		err := send()
		var re *ReplyError
		if !errors.Is(err, ErrProtocol) || errors.As(err, &re) {
			t.Fatalf("command with CR/LF in its path: err = %v, want an unsent line's ErrProtocol", err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "victim.db")); err != nil {
		t.Fatalf("victim.db after injection attempts: %v", err)
	}
	if err := cl.Noop(); err != nil {
		t.Fatalf("session out of step after refused lines: %v", err)
	}
	if size, err := cl.Size("victim.db"); err != nil || size != 100 {
		t.Fatalf("Size(victim.db) = %d, %v", size, err)
	}
}

// TestDataChannelTokenRequired: a data connection without the right pairing
// token never receives file data.
func TestDataChannelTokenRequired(t *testing.T) {
	addr, root := startServer(t, func(cfg *ServerConfig) { cfg.DataTimeout = time.Second })
	makeFile(t, root, "secret.db", 10_000, 50)
	conn, r := rawSession(t, addr)

	sendLine(t, conn, "PASV")
	reply := expectCode(t, r, "229")
	fields := strings.Fields(strings.TrimSpace(reply))
	if len(fields) != 3 {
		t.Fatalf("PASV reply %q", reply)
	}
	dataAddr := fields[2]

	sendLine(t, conn, "RETR secret.db")
	expectCode(t, r, "150")

	// Attacker connects with a wrong token: no data must arrive, and the
	// transfer must abort (the real client never shows up).
	thief, err := net.Dial("tcp", dataAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer thief.Close()
	fmt.Fprintf(thief, "%s\n", strings.Repeat("f", 32))
	thief.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	if n, err := thief.Read(buf); err == nil && n > 0 {
		t.Fatalf("server leaked %d bytes to an unpaired data connection", n)
	}
	// The control channel reports the aborted transfer (425/426).
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read abort reply: %v", err)
	}
	if !strings.HasPrefix(line, "42") {
		t.Fatalf("transfer verdict = %q, want 42x abort", strings.TrimSpace(line))
	}
}

// TestAutoTune exercises the paper's ping+pipechar+formula negotiation over
// a shaped link: the negotiated buffer must be the RTT x bandwidth product
// of the link that was configured. The probe is sized so the shaped
// transfer time (0.4 s) dwarfs both the fixed round trips in front of it
// and scheduling noise: load can only stretch the measured RTT and shrink
// the measured bandwidth, each by far less than the factor of two allowed.
func TestAutoTune(t *testing.T) {
	addr, root := startServer(t, nil)
	makeFile(t, root, "probe.db", 2_000_000, 60)

	const (
		mbps = 40
		rtt  = 20 * time.Millisecond
	)
	link := wan.NewLink(mbps, rtt)
	cl, err := Dial(addr, cred(t, "tuner"), roots(t), WithDialFunc(link.Dialer(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	buf, err := cl.AutoTune("probe.db", 2_000_000)
	if err != nil {
		t.Fatalf("AutoTune: %v", err)
	}
	product := int(rtt.Seconds() * mbps * 1e6 / 8)
	if buf < product/2 || buf > product*2 {
		t.Fatalf("negotiated buffer %d, want about RTT x bandwidth = %d", buf, product)
	}
	// The negotiation stuck: the session carries the setting and the server
	// accepts it again.
	if cl.bufferSize != buf {
		t.Fatalf("session buffer size %d, negotiated %d", cl.bufferSize, buf)
	}
	if err := cl.SetBufferSize(buf); err != nil {
		t.Fatalf("negotiated buffer rejected by server: %v", err)
	}
	// Errors: missing probe file.
	if _, err := cl.AutoTune("no-such-file", 1000); err == nil {
		t.Fatal("AutoTune with missing probe accepted")
	}
}

// --- blocks outside the window the command named ---------------------------

// strayBlocks are payload blocks a peer must not get away with when the
// command named the window [100, 200): each lies at least partly outside.
var strayBlocks = []struct {
	name string
	off  int64
	n    int
}{
	{"negative offset", -1, 10},
	{"before the range", 50, 10},
	{"straddles the range end", 150, 100},
	{"past the range end", 1 << 40, 10},
	{"offset+len overflows", math.MaxInt64 - 5, 10},
}

// writeLog is an io.WriterAt that accepts anything and remembers what it
// was asked to write.
type writeLog struct {
	mu     sync.Mutex
	writes []Range
}

func (w *writeLog) WriteAt(p []byte, off int64) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, Range{off, off + int64(len(p))})
	w.mu.Unlock()
	return len(p), nil
}

// strayServer is a GridFTP server whose every ERET answers, on one stream,
// with a single block of n bytes at off — whatever range was asked for.
func strayServer(t *testing.T, off int64, n int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srvCred, rts := cred(t, "gridftpd/stray"), roots(t)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		peer, err := gsi.Handshake(c, srvCred, rts, false)
		if err != nil {
			return
		}
		ctl := newControlConn(peer.Conn)
		ctl.reply(220, "ready")
		var data net.Listener
		for {
			line, err := ctl.readLine()
			if err != nil {
				return
			}
			switch verb, _, _ := strings.Cut(line, " "); verb {
			case "PASV":
				if data, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
					return
				}
				defer data.Close()
				ctl.reply(codePassive, "tok %s", data.Addr())
			case "ERET":
				ctl.reply(codeOpening, "opening 1 streams size=%d", n)
				dc, err := data.Accept()
				if err != nil {
					return
				}
				bufio.NewReader(dc).ReadString('\n') // pairing token
				writeBlock(dc, 0, off, make([]byte, n))
				writeBlock(dc, flagEOD, 0, nil)
				dc.Close()
				ctl.reply(codeComplete, "transfer complete")
			case "QUIT":
				ctl.reply(codeClosing, "goodbye")
				return
			default:
				ctl.reply(codeOK, "ok")
			}
		}
	}()
	return ln.Addr().String()
}

// TestClientRejectsBlocksOutsideRequestedRange: block offsets arrive from
// the peer, so a server must not be able to make the client write outside
// the ERET range it asked for.
func TestClientRejectsBlocksOutsideRequestedRange(t *testing.T) {
	for _, tc := range strayBlocks {
		t.Run(tc.name, func(t *testing.T) {
			cl := dial(t, strayServer(t, tc.off, tc.n))
			var dst writeLog
			_, err := cl.GetRange("f.db", Range{100, 200}, &dst)
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("GetRange = %v, want ErrProtocol", err)
			}
			if len(dst.writes) != 0 {
				t.Fatalf("client wrote %v outside the requested [100,200)", dst.writes)
			}
		})
	}
}

// storeRaw drives one STOR/ESTO by hand: a single data stream carrying one
// block of n bytes at off, then the end-of-data block. It returns the
// server's verdict line.
func storeRaw(t *testing.T, addr, cmd string, off int64, n int) string {
	t.Helper()
	conn, r := rawSession(t, addr)
	sendLine(t, conn, "PASV")
	pasv := strings.Fields(expectCode(t, r, "229")) // 229 <token> <addr>
	sendLine(t, conn, cmd)
	expectCode(t, r, "150")
	dc, err := net.Dial("tcp", pasv[2])
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	fmt.Fprintf(dc, "%s\n", pasv[1])
	// The server may hang up on the stray block before the EOD is written.
	writeBlock(dc, 0, off, make([]byte, n))
	writeBlock(dc, flagEOD, 0, nil)
	verdict, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("read verdict: %v", err)
	}
	return verdict
}

// TestServerRejectsBlocksOutsideStoreWindow: STOR <len> accepts blocks in
// [0, len) only — a block far past it used to pass the byte count and
// leave a sparse file of any size — and ESTO refuses offsets that are
// negative or overflow.
func TestServerRejectsBlocksOutsideStoreWindow(t *testing.T) {
	addr, root := startServer(t, nil)
	_, orig := makeFile(t, root, "esto.db", 1000, 70)
	cases := []struct {
		cmd  string
		off  int64
		n    int
		code string
	}{
		{"STOR 10 stor.db", 0, 10, "226"},
		{"STOR 10 stor.db", 1 << 40, 10, "426"},
		{"STOR 10 stor.db", 5, 10, "426"},
		{"STOR 10 stor.db", -1, 10, "426"},
		{"STOR 10 stor.db", math.MaxInt64 - 5, 10, "426"},
		{"ESTO 10 esto.db", 500, 10, "226"},
		{"ESTO 10 esto.db", -8, 10, "426"},
		{"ESTO 10 esto.db", math.MaxInt64 - 5, 10, "426"},
	}
	for _, tc := range cases {
		verdict := storeRaw(t, addr, tc.cmd, tc.off, tc.n)
		if !strings.HasPrefix(verdict, tc.code) {
			t.Errorf("%s with a block at %d: %q, want %s", tc.cmd, tc.off, strings.TrimSpace(verdict), tc.code)
		}
		if info, err := os.Stat(filepath.Join(root, "stor.db")); err != nil || info.Size() > 10 {
			t.Fatalf("%s with a block at %d left stor.db at %v bytes (%v)", tc.cmd, tc.off, info.Size(), err)
		}
	}
	got, err := os.ReadFile(filepath.Join(root, "esto.db"))
	copy(orig[500:510], make([]byte, 10)) // the one accepted ESTO block
	if err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("esto.db changed beyond the accepted block (%d bytes, %v)", len(got), err)
	}
}

// TestInterruptedStoreLeavesOldFile: a STOR whose data ends short of its
// length fails and leaves the destination as it was — its previous content,
// or no file at all — with no torn bytes and no staging file behind.
func TestInterruptedStoreLeavesOldFile(t *testing.T) {
	addr, root := startServer(t, nil)
	_, orig := makeFile(t, root, "old.db", 10, 71)
	for name, want := range map[string][]byte{"old.db": orig, "new.db": nil} {
		if v := storeRaw(t, addr, "STOR 10 "+name, 0, 5); !strings.HasPrefix(v, "426") {
			t.Fatalf("STOR of 5 of 10 bytes to %s: %q, want 426", name, strings.TrimSpace(v))
		}
		got, err := os.ReadFile(filepath.Join(root, name))
		if want == nil && !os.IsNotExist(err) || want != nil && !bytes.Equal(got, want) {
			t.Errorf("%s after an interrupted STOR: %d bytes (%v), want %d", name, len(got), err, len(want))
		}
		if _, err := os.Stat(filepath.Join(root, name+PartSuffix)); !os.IsNotExist(err) {
			t.Errorf("%s: staging file left behind (%v)", name, err)
		}
	}
}

// TestUnauthenticatedControlRejected: a client that skips the GSI handshake
// gets nothing.
func TestUnauthenticatedControlRejected(t *testing.T) {
	addr, _ := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Speak FTP straight away; the server is still expecting a handshake
	// and must drop the connection rather than serve commands.
	io.WriteString(conn, "NOOP\r\n")
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err == nil && strings.HasPrefix(line, "2") {
		t.Fatalf("unauthenticated client got %q", strings.TrimSpace(line))
	}
}
