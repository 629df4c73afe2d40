// End-to-end integration test of the command-line tools: a real
// multi-process deployment with gridca-minted credentials, a replicad
// catalog daemon, two gdmpd site daemons, and transfers driven by the gdmp
// and gurlcopy clients — the operational shape of the paper's testbed.
package gdmp_test

import (
	"bytes"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gdmp/internal/objectstore"
)

var (
	toolsOnce sync.Once
	toolsDir  string
	toolsErr  error
)

// buildTools compiles every cmd binary once per test run into a shared
// temp dir (removed by the OS; binaries are only needed while testing).
func buildTools(t *testing.T) string {
	t.Helper()
	toolsOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gdmp-tools-*")
		if err != nil {
			toolsErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			toolsErr = &buildError{err: err, out: string(out)}
			return
		}
		toolsDir = dir
	})
	if toolsErr != nil {
		t.Fatalf("go build ./cmd/...: %v", toolsErr)
	}
	return toolsDir
}

type buildError struct {
	err error
	out string
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

// runTool executes a built binary and returns its combined output.
func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// startDaemon launches a long-running binary and registers cleanup.
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", filepath.Base(bin), err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("%s output:\n%s", filepath.Base(bin), buf.String())
		}
	})
	return cmd
}

// freePort reserves an ephemeral port and returns "127.0.0.1:port".
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitPort blocks until something is listening at addr.
func waitPort(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nothing listening at %s", addr)
}

func TestCLIDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	certs := filepath.Join(work, "certs")

	// 1. Trust domain: CA plus credentials for every principal.
	runTool(t, filepath.Join(bin, "gridca"), "init", "-dir", certs, "-org", "DataGrid")
	for _, cn := range []string{"replicad", "gdmp/site1", "gdmp/site2", "alice"} {
		out := filepath.Join(certs, strings.ReplaceAll(cn, "/", "_")+".pem")
		runTool(t, filepath.Join(bin, "gridca"), "issue", "-dir", certs, "-cn", cn, "-out", out)
	}
	caPem := filepath.Join(certs, "ca.pem")

	// gridca show prints the chain.
	show := runTool(t, filepath.Join(bin, "gridca"), "show", "-cred", filepath.Join(certs, "alice.pem"))
	if !strings.Contains(show, "/O=DataGrid/CN=alice") || !strings.Contains(show, "CA root") {
		t.Fatalf("gridca show output:\n%s", show)
	}

	// A proxy can be delegated and inspected.
	proxyPem := filepath.Join(certs, "alice-proxy.pem")
	runTool(t, filepath.Join(bin, "gridca"), "proxy", "-cred", filepath.Join(certs, "alice.pem"), "-out", proxyPem)
	show = runTool(t, filepath.Join(bin, "gridca"), "show", "-cred", proxyPem)
	if !strings.Contains(show, "alice/proxy") {
		t.Fatalf("proxy show output:\n%s", show)
	}

	// 2. The central replica catalog daemon.
	rcAddr := freePort(t)
	replicadArgs := []string{
		"-listen", rcAddr,
		"-cred", filepath.Join(certs, "replicad.pem"),
		"-ca", caPem,
		"-state-dir", filepath.Join(work, "catalog-state"),
	}
	replicad := startDaemon(t, filepath.Join(bin, "replicad"), replicadArgs...)
	waitPort(t, rcAddr)

	// 3. Two GDMP site daemons.
	site1Ctl, site1Data := freePort(t), freePort(t)
	site2Ctl, site2Data := freePort(t), freePort(t)
	site1Pool := filepath.Join(work, "site1-pool")
	site2Pool := filepath.Join(work, "site2-pool")
	os.MkdirAll(site1Pool, 0o755)
	os.MkdirAll(site2Pool, 0o755)
	startDaemon(t, filepath.Join(bin, "gdmpd"),
		"-name", "site1", "-data", site1Pool, "-rc", rcAddr,
		"-cred", filepath.Join(certs, "gdmp_site1.pem"), "-ca", caPem,
		"-listen", site1Ctl, "-ftp-listen", site1Data)
	startDaemon(t, filepath.Join(bin, "gdmpd"),
		"-name", "site2", "-data", site2Pool, "-rc", rcAddr,
		"-cred", filepath.Join(certs, "gdmp_site2.pem"), "-ca", caPem,
		"-listen", site2Ctl, "-ftp-listen", site2Data)
	waitPort(t, site1Ctl)
	waitPort(t, site2Ctl)

	gdmp := filepath.Join(bin, "gdmp")
	aliceArgs := []string{"-cred", proxyPem, "-ca", caPem}

	// 4. The client pings both sites (authenticating with the proxy).
	out := runTool(t, gdmp, append(aliceArgs, "ping", site1Ctl)...)
	if !strings.Contains(out, `site "site1"`) {
		t.Fatalf("ping output: %s", out)
	}
	out = runTool(t, gdmp, append(aliceArgs, "ping", site2Ctl)...)
	if !strings.Contains(out, `site "site2"`) {
		t.Fatalf("ping output: %s", out)
	}

	// 5. Subscribe site2 to site1 via the CLI.
	runTool(t, gdmp, append(aliceArgs, "subscribe", site1Ctl, "site2", site2Ctl)...)

	// 6. Move a file into site1 with gurlcopy (upload), then fetch it back
	// (download) and verify contents.
	gurlcopy := filepath.Join(bin, "gurlcopy")
	payload := bytes.Repeat([]byte("gdmp-cli-payload-"), 40_000) // ~680 KB
	src := filepath.Join(work, "upload.db")
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runTool(t, gurlcopy, "-cred", proxyPem, "-ca", caPem, "-p", "3",
		src, "gridftp://"+site1Data+"/runs/upload.db")
	if !strings.Contains(out, "bytes in") {
		t.Fatalf("gurlcopy upload output: %s", out)
	}
	dst := filepath.Join(work, "download.db")
	runTool(t, gurlcopy, "-cred", proxyPem, "-ca", caPem, "-p", "2",
		"gridftp://"+site1Data+"/runs/upload.db", dst)
	got, err := os.ReadFile(dst)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("download mismatch: %v", err)
	}

	// 7. Third-party transfer between the two site servers.
	out = runTool(t, gurlcopy, "-cred", proxyPem, "-ca", caPem, "-p", "2",
		"gridftp://"+site1Data+"/runs/upload.db",
		"gridftp://"+site2Data+"/mirror/upload.db")
	if !strings.Contains(out, "bytes in") {
		t.Fatalf("third-party output: %s", out)
	}
	mirror, err := os.ReadFile(filepath.Join(site2Pool, "mirror", "upload.db"))
	if err != nil || !bytes.Equal(mirror, payload) {
		t.Fatalf("third-party content mismatch: %v", err)
	}

	// 8. gdmp fetch (the Data Mover path) also works.
	fetched := filepath.Join(work, "fetched.db")
	out = runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-p", "2",
		"fetch", "gridftp://"+site1Data+"/runs/upload.db", fetched)
	if !strings.Contains(out, "fetched") {
		t.Fatalf("fetch output: %s", out)
	}
	got, _ = os.ReadFile(fetched)
	if !bytes.Equal(got, payload) {
		t.Fatal("fetch content mismatch")
	}

	// 9. Register the file in the catalog via a small driver (the daemons
	// publish internally; the catalog CLI surface is query/locations).
	// Instead exercise the catalog through gdmp query on the empty
	// namespace — it should succeed with no results.
	out = runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-rc", rcAddr,
		"query", "(name=*)")
	_ = out // empty catalog: no lines, success is enough

	// 10. The site catalog command answers (empty catalogs).
	out = runTool(t, gdmp, append(aliceArgs, "catalog", site1Ctl)...)
	if !strings.Contains(out, "0 files") {
		t.Fatalf("catalog output: %s", out)
	}

	// 11. The status command reports the site's counters.
	out = runTool(t, gdmp, append(aliceArgs, "status", site1Ctl)...)
	if !strings.Contains(out, "site site1") || !strings.Contains(out, "transfers: 0 ok") {
		t.Fatalf("status output: %s", out)
	}

	// 11b. The stats command dumps the daemon's metrics registry; the
	// earlier gurlcopy upload must be visible in the GridFTP server series.
	out = runTool(t, gdmp, append(aliceArgs, "stats", site1Ctl)...)
	for _, series := range []string{
		"# TYPE gdmp_gridftp_server_bytes_total counter",
		`gdmp_gridftp_server_bytes_total{direction="received"}`,
		"gdmp_rpc_server_requests_total",
		"gdmp_site_subscribers 1",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("stats output missing %q:\n%s", series, out)
		}
	}

	// 12. Operator-driven catalog registration + logical-name fetch: the
	// uploaded file becomes a catalog entry, is discoverable by query and
	// locations, and fetch-lfn resolves and retrieves it.
	lfn := "lfn://site1/runs/upload.db"
	pfn := "gridftp://" + site1Data + "/runs/upload.db"
	runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-rc", rcAddr, "register", lfn, pfn)
	out = runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-rc", rcAddr, "locations", lfn)
	if !strings.Contains(out, pfn) {
		t.Fatalf("locations output: %s", out)
	}
	out = runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-rc", rcAddr,
		"query", "(name=lfn://site1/*)")
	if !strings.Contains(out, lfn) {
		t.Fatalf("query output: %s", out)
	}
	byLFN := filepath.Join(work, "by-lfn.db")
	out = runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-rc", rcAddr, "-p", "2",
		"fetch-lfn", lfn, byLFN)
	if !strings.Contains(out, "fetched "+lfn) {
		t.Fatalf("fetch-lfn output: %s", out)
	}
	got, _ = os.ReadFile(byLFN)
	if !bytes.Equal(got, payload) {
		t.Fatal("fetch-lfn content mismatch")
	}

	// 13. The catalog is journaled under -state-dir: replicad shuts down
	// cleanly on SIGTERM, and a new one on the same directory still knows
	// the registered replica.
	if err := replicad.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := replicad.Wait(); err != nil {
		t.Fatalf("replicad exit after SIGTERM: %v", err)
	}
	startDaemon(t, filepath.Join(bin, "replicad"), replicadArgs...)
	waitPort(t, rcAddr)
	out = runTool(t, gdmp, "-cred", proxyPem, "-ca", caPem, "-rc", rcAddr, "locations", lfn)
	if !strings.Contains(out, pfn) {
		t.Fatalf("locations after replicad restart: %s", out)
	}
}

func TestCLIObjcopier(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()

	// Build a small object database and a federation catalog.
	dbPath := filepath.Join(work, "db1.odb")
	w, err := objectstore.Create(dbPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(1); i <= 5; i++ {
		if err := w.Add(&objectstore.Object{
			OID: objectstore.OID{Slot: i}, Type: "esd", Event: uint64(i),
			Data: bytes.Repeat([]byte{byte(i)}, 100),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fed := objectstore.NewFederation()
	if _, err := fed.Attach(dbPath); err != nil {
		t.Fatal(err)
	}
	fedCat := filepath.Join(work, "federation.cat")
	if err := fed.Save(fedCat); err != nil {
		t.Fatal(err)
	}
	fed.Close()

	out := filepath.Join(work, "extract.odb")
	output := runTool(t, filepath.Join(bin, "objcopier"),
		"-federation", fedCat,
		"-oids", "1:2,1:4",
		"-out", out,
		"-dbid", "2147483649")
	if !strings.Contains(output, "copied 2 objects") {
		t.Fatalf("objcopier output: %s", output)
	}
	db, err := objectstore.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Len() != 2 {
		t.Fatalf("extracted db has %d objects", db.Len())
	}
}

func TestCLIBenchfig(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildTools(t)
	out := runTool(t, filepath.Join(bin, "benchfig"), "-fig", "conclusions", "-repeats", "3")
	for _, want := range []string{"C1", "C2", "C3", "C4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("benchfig output missing %s:\n%s", want, out)
		}
	}
	out = runTool(t, filepath.Join(bin, "benchfig"), "-fig", "sparse")
	if !strings.Contains(out, "632.3x") {
		t.Fatalf("sparse table missing paper row:\n%s", out)
	}
}
