package gridftp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gdmp/internal/durable"
	"gdmp/internal/faults"
	"gdmp/internal/obs"
)

// connector builds a ReliableGetFile connect func against addr, recording
// into reg and optionally routing through a fault injector.
func connector(t *testing.T, addr string, reg *obs.Registry, inj *faults.Injector) func(context.Context) (*Client, error) {
	t.Helper()
	return func(ctx context.Context) (*Client, error) {
		// Single-stream so an interrupted transfer leaves a contiguous
		// prefix (a multi-stream kill can leave holes, which the prefix
		// check would — correctly — refuse to resume).
		opts := []ClientOption{WithMetrics(reg), WithParallelism(1)}
		if inj != nil {
			opts = append(opts, WithDialFunc(inj.Dialer(nil)))
		}
		return DialContext(ctx, addr, cred(t, "user/"+t.Name()), roots(t), opts...)
	}
}

func TestGetFileFailureNeverTouchesDestination(t *testing.T) {
	addr, _ := startServer(t, nil)
	cl := dial(t, addr)
	dest := filepath.Join(t.TempDir(), "out.db")
	// A destination from a previous successful run must survive a failed
	// re-transfer untouched.
	if err := os.WriteFile(dest, []byte("precious old bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetFile("no/such/file.db", dest); err == nil {
		t.Fatal("GetFile of a missing remote file succeeded")
	}
	got, err := os.ReadFile(dest)
	if err != nil || string(got) != "precious old bytes" {
		t.Fatalf("destination disturbed by failed transfer: %q, %v", got, err)
	}
	if _, err := os.Stat(dest + PartSuffix); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}

func TestGetFileStagesAndRenames(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "a.db", 200_000, 11)
	cl := dial(t, addr)
	dest := filepath.Join(t.TempDir(), "a.db")
	if _, err := cl.GetFile("a.db", dest); err != nil {
		t.Fatalf("GetFile: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch")
	}
	if _, err := os.Stat(dest + PartSuffix); !os.IsNotExist(err) {
		t.Fatalf("staging file survived success: %v", err)
	}
}

// TestReliableGetFileOneSessionPerAttempt pins the one-session contract:
// an attempt's SIZE, prefix judgement, ERET and landing CKSM share the
// session it dials, so a clean download dials once, and a refused dial
// neither costs the staged prefix nor a second judgement.
func TestReliableGetFileOneSessionPerAttempt(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "big.db", 2_000_000, 17)
	for _, tc := range []struct {
		name                      string
		staged                    int
		refused                   int
		connects                  int
		resumed, discarded, moved int64
	}{
		{"fresh download", 0, 0, 1, 0, 0, 2_000_000},
		{"verified half-file resumed", 1_000_000, 0, 1, 1_000_000, 0, 1_000_000},
		{"first dial refused, prefix kept", 1_000_000, 1, 2, 1_000_000, 0, 1_000_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dest := filepath.Join(t.TempDir(), "big.db")
			if tc.staged > 0 {
				if err := os.WriteFile(dest+PartSuffix, want[:tc.staged], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			dial := connector(t, addr, obs.NewRegistry(), nil)
			connects := 0
			connect := func(ctx context.Context) (*Client, error) {
				if connects++; connects <= tc.refused {
					return nil, errors.New("connection refused (injected)")
				}
				return dial(ctx)
			}
			stats, err := ReliableGetFile(context.Background(), connect, "big.db", dest, fastPolicy(3))
			if err != nil {
				t.Fatalf("ReliableGetFile: %v", err)
			}
			if got, _ := os.ReadFile(dest); !bytes.Equal(got, want) {
				t.Fatal("content mismatch")
			}
			if connects != tc.connects {
				t.Errorf("connects = %d, want %d", connects, tc.connects)
			}
			if stats.ResumedBytes != tc.resumed || stats.DiscardedBytes != tc.discarded || stats.Bytes != tc.moved {
				t.Errorf("resumed/discarded/moved = %d/%d/%d, want %d/%d/%d", stats.ResumedBytes,
					stats.DiscardedBytes, stats.Bytes, tc.resumed, tc.discarded, tc.moved)
			}
		})
	}
}

func TestReliableGetFileResumesVerifiedPrefix(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "big.db", 400_000, 12)
	reg := obs.NewRegistry()
	dest := filepath.Join(t.TempDir(), "big.db")
	// A previous interrupted attempt left a correct 150k prefix staged.
	if err := os.WriteFile(dest+PartSuffix, want[:150_000], 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := ReliableGetFile(context.Background(), connector(t, addr, reg, nil),
		"big.db", dest, fastPolicy(3))
	if err != nil {
		t.Fatalf("ReliableGetFile: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after resumed transfer")
	}
	resumes := reg.Counter(ClientMetricsPrefix+"_resumes_total", "").Value()
	resumedBytes := reg.Counter(ClientMetricsPrefix+"_resumed_bytes_total", "").Value()
	if resumes != 1 {
		t.Fatalf("resumes = %d, want 1", resumes)
	}
	if resumedBytes != 150_000 {
		t.Fatalf("resumed bytes = %d, want 150000", resumedBytes)
	}
	// Only the missing suffix crossed the wire.
	if stats.Bytes != 250_000 {
		t.Fatalf("transferred %d bytes, want 250000", stats.Bytes)
	}
}

func TestReliableGetFileRejectsCorruptPrefix(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "b.db", 300_000, 13)
	reg := obs.NewRegistry()
	dest := filepath.Join(t.TempDir(), "b.db")
	bad := append([]byte(nil), want[:100_000]...)
	bad[12_345] ^= 0xff
	if err := os.WriteFile(dest+PartSuffix, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := ReliableGetFile(context.Background(), connector(t, addr, reg, nil),
		"b.db", dest, fastPolicy(3))
	if err != nil {
		t.Fatalf("ReliableGetFile: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after prefix rejection")
	}
	resumes := reg.Counter(ClientMetricsPrefix+"_resumes_total", "").Value()
	if resumes != 0 {
		t.Fatalf("corrupt prefix was resumed (%d resumes)", resumes)
	}
	if stats.Bytes != 300_000 {
		t.Fatalf("transferred %d bytes, want the full 300000 after restart", stats.Bytes)
	}
}

func TestReliableGetFileRestartsWhenPartialExceedsRemote(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "c.db", 50_000, 14)
	dest := filepath.Join(t.TempDir(), "c.db")
	if err := os.WriteFile(dest+PartSuffix, make([]byte, 80_000), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReliableGetFile(context.Background(), connector(t, addr, obs.NewRegistry(), nil),
		"c.db", dest, fastPolicy(3)); err != nil {
		t.Fatalf("ReliableGetFile: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after oversized-partial restart")
	}
}

// TestReliableGetFileInterruptThenResume is the full restart-marker
// lifecycle: a mid-stream connection reset leaves a staging file and no
// destination; a second call verifies the prefix and finishes from a
// non-zero offset.
func TestReliableGetFileInterruptThenResume(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "d.db", 600_000, 15)
	reg := obs.NewRegistry()
	dest := filepath.Join(t.TempDir(), "d.db")

	// Every data connection dies after 200k bytes; with one attempt the
	// transfer must fail.
	inj := faults.New(1, func(c faults.ConnInfo) faults.Plan {
		return faults.Plan{ResetAfterBytes: 200_000}
	}, faults.WithMetrics(reg))
	if _, err := ReliableGetFile(context.Background(), connector(t, addr, reg, inj),
		"d.db", dest, fastPolicy(1)); err == nil {
		t.Fatal("interrupted transfer reported success")
	}
	if _, err := os.Stat(dest); !os.IsNotExist(err) {
		t.Fatalf("destination exists after failed transfer: %v", err)
	}
	info, err := os.Stat(dest + PartSuffix)
	if err != nil {
		t.Fatalf("no staging file after interruption: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("staging file is empty; nothing to resume from")
	}

	// Second run, no faults: must resume from the staged prefix.
	if _, err := ReliableGetFile(context.Background(), connector(t, addr, reg, nil),
		"d.db", dest, fastPolicy(3)); err != nil {
		t.Fatalf("resumed ReliableGetFile: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after interrupt + resume")
	}
	resumes := reg.Counter(ClientMetricsPrefix+"_resumes_total", "").Value()
	resumedBytes := reg.Counter(ClientMetricsPrefix+"_resumed_bytes_total", "").Value()
	if resumes == 0 || resumedBytes == 0 {
		t.Fatalf("resume not recorded: resumes=%d bytes=%d", resumes, resumedBytes)
	}
	t.Logf("resumed from offset %d of %d", resumedBytes, len(want))
}

// TestReliableGetFileCrossSourceResumeAgreement is the hedged-pull
// takeover happy path: a prefix downloaded from source A is resumed
// against source B holding identical content. B's CKSM range vouches for
// the prefix, so zero already-verified bytes are re-downloaded.
func TestReliableGetFileCrossSourceResumeAgreement(t *testing.T) {
	addrA, rootA := startServer(t, nil)
	addrB, rootB := startServer(t, nil)
	// Same seed: both replicas hold the same bytes, as catalog replicas do.
	makeFile(t, rootA, "x.db", 500_000, 21)
	_, want := makeFile(t, rootB, "x.db", 500_000, 21)
	reg := obs.NewRegistry()
	dest := filepath.Join(t.TempDir(), "x.db")

	// Source A dies mid-stream after 200k bytes: staged prefix, no dest.
	inj := faults.New(1, func(c faults.ConnInfo) faults.Plan {
		return faults.Plan{ResetAfterBytes: 200_000}
	}, faults.WithMetrics(reg))
	if _, err := ReliableGetFile(context.Background(), connector(t, addrA, reg, inj),
		"x.db", dest, fastPolicy(1)); err == nil {
		t.Fatal("interrupted transfer reported success")
	}
	info, err := os.Stat(dest + PartSuffix)
	if err != nil || info.Size() == 0 {
		t.Fatalf("no staged prefix to take over: %v", err)
	}
	prefix := info.Size()

	// Take over from source B: the prefix must be verified via B's CKSM
	// and reused, not re-downloaded.
	stats, err := ReliableGetFile(context.Background(), connector(t, addrB, reg, nil),
		"x.db", dest, fastPolicy(3))
	if err != nil {
		t.Fatalf("cross-source ReliableGetFile: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after cross-source resume")
	}
	if stats.ResumedBytes != prefix || stats.DiscardedBytes != 0 {
		t.Fatalf("resumed/discarded = %d/%d, want %d/0",
			stats.ResumedBytes, stats.DiscardedBytes, prefix)
	}
	if stats.Bytes != 500_000-prefix {
		t.Fatalf("re-downloaded %d bytes, want only the missing %d",
			stats.Bytes, 500_000-prefix)
	}
}

// TestReliableGetFileCrossSourcePrefixDisagreement covers the takeover
// unhappy path: the new source holds *different* content under the same
// name, so its CKSM range disagrees with the staged prefix. The transfer
// must restart from zero against that source — counting the discarded
// prefix as wasted — and must never quarantine or strand the local
// .part (the staging file is reused in place and consumed by the rename).
func TestReliableGetFileCrossSourcePrefixDisagreement(t *testing.T) {
	addrA, rootA := startServer(t, nil)
	addrB, rootB := startServer(t, nil)
	makeFile(t, rootA, "y.db", 400_000, 31)
	_, want := makeFile(t, rootB, "y.db", 400_000, 32) // different bytes
	reg := obs.NewRegistry()
	destDir := t.TempDir()
	dest := filepath.Join(destDir, "y.db")

	inj := faults.New(1, func(c faults.ConnInfo) faults.Plan {
		return faults.Plan{ResetAfterBytes: 150_000}
	}, faults.WithMetrics(reg))
	if _, err := ReliableGetFile(context.Background(), connector(t, addrA, reg, inj),
		"y.db", dest, fastPolicy(1)); err == nil {
		t.Fatal("interrupted transfer reported success")
	}
	info, err := os.Stat(dest + PartSuffix)
	if err != nil || info.Size() == 0 {
		t.Fatalf("no staged prefix: %v", err)
	}
	prefix := info.Size()

	stats, err := ReliableGetFile(context.Background(), connector(t, addrB, reg, nil),
		"y.db", dest, fastPolicy(3))
	if err != nil {
		t.Fatalf("cross-source ReliableGetFile after disagreement: %v", err)
	}
	got, _ := os.ReadFile(dest)
	if !bytes.Equal(got, want) {
		t.Fatal("destination does not match the source that completed the pull")
	}
	// The disagreeing prefix was discarded, never resumed.
	if stats.ResumedBytes != 0 || stats.DiscardedBytes != prefix {
		t.Fatalf("resumed/discarded = %d/%d, want 0/%d",
			stats.ResumedBytes, stats.DiscardedBytes, prefix)
	}
	if stats.Bytes != 400_000 {
		t.Fatalf("transferred %d bytes, want the full 400000 after restart", stats.Bytes)
	}
	resumes := reg.Counter(ClientMetricsPrefix+"_resumes_total", "").Value()
	if resumes != 0 {
		t.Fatalf("disagreeing prefix was resumed (%d resumes)", resumes)
	}
	if !strings.Contains(reg.Text(), ClientMetricsPrefix+"_resume_rejected_total 1") {
		t.Fatalf("prefix rejection not recorded:\n%s", reg.Text())
	}
	// No quarantine, no stray staging file: exactly the destination left.
	entries, err := os.ReadDir(destDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "y.db" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("unexpected files alongside destination: %v", names)
	}
}

// TestReliableGetFileProgressCallback checks the liveness signal hedged
// pulls watch: cumulative byte progress, monotonic, seeded with the
// resumed prefix, ending at the full file size.
func TestReliableGetFileProgressCallback(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "p.db", 300_000, 41)
	dest := filepath.Join(t.TempDir(), "p.db")
	// A verified prefix is already staged: progress must start from it.
	if err := os.WriteFile(dest+PartSuffix, want[:100_000], 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []int64
	opt := GetFileOptions{Progress: func(total int64) {
		mu.Lock()
		seen = append(seen, total)
		mu.Unlock()
	}}
	if _, err := ReliableGetFileOpts(context.Background(), connector(t, addr, obs.NewRegistry(), nil),
		"p.db", dest, fastPolicy(3), opt); err != nil {
		t.Fatalf("ReliableGetFileOpts: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("progress callback never fired")
	}
	if seen[0] != 100_000 {
		t.Fatalf("first progress report = %d, want the resumed prefix 100000", seen[0])
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("progress went backwards: %d after %d", seen[i], seen[i-1])
		}
	}
	if last := seen[len(seen)-1]; last != 300_000 {
		t.Fatalf("final progress = %d, want 300000", last)
	}
}

// cksmCounter counts the whole-file CKSM commands a session sends.
type cksmCounter struct {
	w io.Writer
	n *atomic.Int32
}

func (c cksmCounter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("CKSM /")) {
		c.n.Add(1)
	}
	return c.w.Write(p)
}

// TestLandingCheck pins who vouches for a download's bytes. A caller that
// holds no CRC of its own (gurlcopy, gdmp fetch) has the source's
// whole-file CKSM checked, once per get; a caller that supplies a landing
// check asks for none, and its check sees the staged file before the
// rename: a refusal wrapping ErrChecksum leaves neither the file nor its
// staging copy and counts as a CRC failure.
func TestLandingCheck(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "f.db", 300_000, 5)
	reg := obs.NewRegistry()
	var cksms atomic.Int32
	dial := connector(t, addr, reg, nil)
	connect := func(ctx context.Context) (*Client, error) {
		c, err := dial(ctx)
		if err == nil {
			c.ctl.w = cksmCounter{c.ctl.w, &cksms}
		}
		return c, err
	}
	get := func(dest string, verify func(string) error) error {
		_, err := ReliableGetFileOpts(context.Background(), connect, "f.db", dest, fastPolicy(1), GetFileOptions{Verify: verify})
		return err
	}

	dir := t.TempDir()
	if err := get(filepath.Join(dir, "plain.db"), nil); err != nil || cksms.Load() != 1 {
		t.Fatalf("get without a landing check: %v, %d CKSMs; want 1", err, cksms.Load())
	}
	c, err := connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.GetFile("f.db", filepath.Join(dir, "single.db"))
	c.Close()
	if err != nil || cksms.Load() != 2 {
		t.Fatalf("GetFile: %v, %d CKSMs in all; want 2", err, cksms.Load())
	}

	var checked []byte
	dest := filepath.Join(dir, "checked.db")
	err = get(dest, func(staged string) (err error) {
		checked, err = os.ReadFile(staged)
		return err
	})
	if got, _ := os.ReadFile(dest); err != nil || cksms.Load() != 2 || !bytes.Equal(checked, want) || !bytes.Equal(got, want) {
		t.Fatalf("get with a landing check: %v, %d CKSMs in all (want 2), check saw the file %v, landed %v",
			err, cksms.Load(), bytes.Equal(checked, want), bytes.Equal(got, want))
	}

	dest = filepath.Join(dir, "refused.db")
	err = get(dest, func(string) error { return fmt.Errorf("%w: not the expected bytes", ErrChecksum) })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("refused landing = %v, want ErrChecksum", err)
	}
	for _, p := range []string{dest, dest + PartSuffix} {
		if _, serr := os.Stat(p); !os.IsNotExist(serr) {
			t.Fatalf("refused landing left %s (%v)", p, serr)
		}
	}
	if n := reg.Counter(ClientMetricsPrefix+"_crc_failures_total", "").Value(); n != 1 {
		t.Fatalf("crc failures = %d, want 1", n)
	}
}

// TestLandingSyncBesideCheck pins that a landing's check does not wait for
// the staged file's fsync: an observer holds the .part's fsync back until
// the check has been entered (for at most a bounded wait), and the check
// finds no staged fsync returned when it starts. The fsync still runs once
// and the file lands.
func TestLandingSyncBesideCheck(t *testing.T) {
	addr, root := startServer(t, nil)
	_, want := makeFile(t, root, "f.db", 300_000, 6)
	dest := filepath.Join(t.TempDir(), "f.db")
	entered := make(chan struct{})
	var synced atomic.Int32
	durable.Observe(func(op durable.Op, path, _ string) {
		if op != durable.OpSync || path != dest+PartSuffix {
			return
		}
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
		}
		synced.Add(1)
	})
	t.Cleanup(func() { durable.Observe(func(durable.Op, string, string) {}) })

	syncedBeforeCheck := int32(-1)
	verify := func(staged string) error {
		syncedBeforeCheck = synced.Load()
		close(entered)
		got, err := os.ReadFile(staged)
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%w: staged bytes differ", ErrChecksum)
		}
		return err
	}
	_, err := ReliableGetFileOpts(context.Background(), connector(t, addr, obs.NewRegistry(), nil), "f.db", dest, fastPolicy(1), GetFileOptions{Verify: verify})
	if err != nil {
		t.Fatal(err)
	}
	if syncedBeforeCheck != 0 {
		t.Fatalf("the check started after %d staged fsyncs, want 0", syncedBeforeCheck)
	}
	if n := synced.Load(); n != 1 {
		t.Fatalf("%d staged fsyncs, want 1", n)
	}
	if got, _ := os.ReadFile(dest); !bytes.Equal(got, want) {
		t.Fatal("landed bytes are not the source's")
	}
}

// TestLandingFailures is landStaged's failure table, with and without a
// resumable download: which error wins (a failed fsync over the check's
// verdict), whether the staging file stays as a restart marker, whether a
// CRC failure is counted, and that the fsync running beside the check is
// joined on every path. A staging file closed before landing is a sync
// that fails.
func TestLandingFailures(t *testing.T) {
	refuse := func(string) error { return fmt.Errorf("%w: not the expected bytes", ErrChecksum) }
	pass := func(string) error { return nil }
	cases := []struct {
		name      string
		closed    bool // the staging file's fsync fails
		occupied  bool // a non-empty directory sits at the destination
		verify    func(string) error
		want      error
		keepsPart bool // a resumable download keeps its .part
		crcFails  int64
	}{
		{name: "lands", verify: pass},
		{name: "sync", closed: true, verify: pass, want: os.ErrClosed, keepsPart: true},
		{name: "check", verify: refuse, want: ErrChecksum, crcFails: 1},
		{name: "both", closed: true, verify: refuse, want: os.ErrClosed, keepsPart: true},
		{name: "rename", occupied: true, verify: pass, want: syscall.EEXIST, keepsPart: true},
	}
	for _, tc := range cases {
		for _, resumable := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/resumable=%v", tc.name, resumable), func(t *testing.T) {
				reg := obs.NewRegistry()
				cl := &Client{rec: obs.NewTransferRecorder(reg, ClientMetricsPrefix)}
				dest := filepath.Join(t.TempDir(), "f.db")
				part := dest + PartSuffix
				data := []byte("staged payload")
				f, err := os.Create(part)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(data); err != nil {
					t.Fatal(err)
				}
				if tc.closed {
					f.Close()
				}
				if tc.occupied {
					if err := os.MkdirAll(filepath.Join(dest, "resident"), 0o755); err != nil {
						t.Fatal(err)
					}
				}

				base := runtime.NumGoroutine()
				err = landStaged(f, nil, cl, "f.db", dest, resumable, tc.verify)
				if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("landStaged = %v, want %v", err, tc.want)
				}
				_, serr := os.Stat(part)
				if kept, wantKept := serr == nil, tc.want != nil && resumable && tc.keepsPart; kept != wantKept {
					t.Fatalf("staging file kept %v, want %v (%v)", kept, wantKept, serr)
				}
				if tc.want == nil {
					if got, _ := os.ReadFile(dest); !bytes.Equal(got, data) {
						t.Fatal("landed bytes are not the staged ones")
					}
				}
				if n := reg.Counter(ClientMetricsPrefix+"_crc_failures_total", "").Value(); n != tc.crcFails {
					t.Fatalf("crc failures = %d, want %d", n, tc.crcFails)
				}
				// The joined fsync goroutine may take a moment to exit
				// after its result is taken; one never joined blocks.
				for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after landing, %d before", runtime.NumGoroutine(), base)
					}
				}
			})
		}
	}
}
