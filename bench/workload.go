package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/testbed"
	"gdmp/internal/xfer"
)

const (
	parityK = 8
	parityM = 2

	// opTimeout bounds any single wait of the replay; an op that hits it
	// is a failed op, never a hang.
	opTimeout = 60 * time.Second

	// minOps is the floor on a replay's op count, so that its first tenth,
	// the warm-up, is never empty.
	minOps = 10
)

// workload is one set of inputs the benchmark replays. Every workload is a
// closed loop: a client issues its next op only after the previous one
// completed. The op count is fixed by --seconds (per10s ops per ten
// nominal seconds), so it is the same on every commit and the exact
// per-op counts repeat; a faster commit simply finishes sooner.
type workload struct {
	name string
	why  string

	fileSize int // bytes per file
	per10s   int // replay ops (warm-up included) at --seconds 10
	clients  int // closed-loop client goroutines (<= nproc)

	// resident and damaged size scrub_repair's working set: replicas the
	// consumer holds, and how many of them each round damages.
	resident, damaged int

	setup func(e *env) error
	// prep is untimed work before op i (scrub_repair's damage).
	prep func(e *env, i int) error
	// op runs replay op i under span parent and returns the payload bytes
	// it landed (or scrubbed).
	op func(e *env, i, parent int) (int64, error)
	// release is untimed work after op i: dropping what it landed from the
	// page cache (see dropFromCache).
	release func(e *env, i int)

	// budget lists, per replay op, how many times each probed layer
	// function runs on the op's blocking path.
	budget []budgetRow
}

// budgetRow is one line of the per-op budget: calls of the function the
// per-layer metric probes, each costing the probe's median. Rows with
// inside set are part of another row's time and are listed, not summed.
type budgetRow struct {
	metric string
	calls  float64
	// count, when set, names the exact count measured in the same run that
	// supplies calls, so the row follows the program instead of a constant.
	count  string
	inside string
}

var workloads = []*workload{bulkPull, smallDrain, publishFanout, scrubRepair}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opsFor is the replay's op count at a nominal run length.
func (w *workload) opsFor(seconds float64) int {
	n := int(float64(w.per10s)*seconds/10 + 0.5)
	if n < minOps {
		n = minOps
	}
	return n
}

// pullBudget is the blocking path of one Site.Get: what replicate() calls,
// in order, with the catalog verbs and journal appends at today's counts.
var pullBudget = []budgetRow{
	{metric: "xfer.submit_wait_us", calls: 1},
	{metric: "replica.lookup_rtt_us", calls: 1},
	{metric: "replica.locations_rtt_us", calls: 1},
	{metric: "rpc.dial_handshake_us", calls: 1},
	{metric: "rpc.call_rtt_us", calls: 1},
	{metric: "gridftp.get_mbps", calls: 1},
	{metric: "gridftp.session_setup_us", calls: 1, inside: "gridftp.get_mbps"},
	{metric: "gsi.handshake_us", calls: 2, inside: "rpc.dial_handshake_us, gridftp.session_setup_us"},
	{metric: "admission.admit_us", calls: 2, inside: "rpc.call_rtt_us, gridftp.get_mbps"},
	{metric: "gridftp.crc32file_mbps", calls: 1},
	{metric: "parity.create_mbps", calls: 1},
	{metric: "parity.sidecar_write_ms", calls: 1},
	{metric: "journal.append_sync_us", count: "journal.appends_per_pull"},
	{metric: "replica.add_replica_rtt_us", calls: 1},
	{metric: "replica.set_attrs_rtt_us", calls: 1},
}

var bulkPull = &workload{
	name:     "bulk_pull",
	why:      "one consumer pulls large files one after another, so per-byte layers (GridFTP, CRC passes, Reed-Solomon, sidecar fsync) set the time",
	fileSize: 8 << 20,
	per10s:   195,
	clients:  1,
	setup: func(e *env) error {
		if err := e.addProducerConsumers(1, testbed.SiteOptions{PullWorkers: 1, Parallelism: 2}); err != nil {
			return err
		}
		return e.publishFiles(e.ops)
	},
	op:      pullOp,
	release: func(e *env, i int) { e.dropLanded(i, e.cons) },
	budget:  pullBudget,
}

var smallDrain = &workload{
	name:     "small_drain",
	why:      "two clients drain thousands of 4 KiB files, so the fixed per-pull path (catalog RPCs, dials, GSI handshakes, journal appends) sets the time and payload is negligible",
	fileSize: 4 << 10,
	per10s:   1650,
	clients:  2,
	setup: func(e *env) error {
		if err := e.addProducerConsumers(1, testbed.SiteOptions{PullWorkers: 2}); err != nil {
			return err
		}
		return e.publishFiles(e.ops)
	},
	op:      pullOp,
	release: func(e *env, i int) { e.dropLanded(i, e.cons) },
	budget:  pullBudget,
}

var publishFanout = &workload{
	name:     "publish_fanout",
	why:      "the write side: each publish is notified to two auto-replicating subscribers that pull it at once, so publish cost, notification and one server feeding two readers show",
	fileSize: 1 << 20,
	per10s:   300,
	clients:  1,
	setup: func(e *env) error {
		if err := e.addProducerConsumers(2, testbed.SiteOptions{AutoReplicate: true}); err != nil {
			return err
		}
		for _, sub := range e.cons {
			if err := sub.SubscribeTo(e.prod.Addr()); err != nil {
				return err
			}
			e.landed = append(e.landed, sub.Metrics().
				CounterVec(xfer.MetricsPrefix+"_jobs_total", "", "outcome").WithLabelValues("ok"))
		}
		return e.writeFiles(e.ops)
	},
	op: fanoutOp,
	budget: append([]budgetRow{
		{metric: "core.publish_ms", calls: 1},
		{metric: "replica.register_rtt_us", calls: 1, inside: "core.publish_ms"},
	}, pullBudget...),
}

var scrubRepair = &workload{
	name:     "scrub_repair",
	why:      "the read/repair side of CRC and parity: every round damages a quarter of the consumer's replicas within the parity budget and times one scrub pass that must rebuild them in place",
	fileSize: 4 << 20,
	per10s:   198,
	clients:  1,
	resident: 8,
	damaged:  2,
	setup: func(e *env) error {
		if err := e.addProducerConsumers(1, testbed.SiteOptions{}); err != nil {
			return err
		}
		if err := e.publishFiles(e.def.resident); err != nil {
			return err
		}
		for _, f := range e.files {
			if err := e.cons[0].Get(f.lfn); err != nil {
				return err
			}
		}
		return nil
	},
	prep: func(e *env, i int) error {
		// Which replicas and which blocks is seeded; how many blocks is not:
		// the round's damaged replicas lose 1, 2, 1, ... blocks (<= m) in
		// turn, so with an even number of them every pass rebuilds the same
		// number of blocks and the passes' times differ by the box alone.
		blockSize := int64((e.def.fileSize + parityK - 1) / parityK)
		for j, n := range e.rng.Perm(len(e.files))[:e.def.damaged] {
			path := filepath.Join(e.cons[0].DataDir(), filepath.FromSlash(e.files[n].rel))
			if _, err := faults.FlipBlocks(path, e.rng.Int63(), blockSize, 1+(i+j)%parityM); err != nil {
				return err
			}
		}
		return nil
	},
	op: func(e *env, i, parent int) (int64, error) {
		sp := e.tr.begin("core.Site.ScrubPass", parent, i)
		rep, err := e.cons[0].ScrubPass(context.Background())
		e.tr.end(sp)
		if err != nil {
			return 0, err
		}
		if rep.Scanned != len(e.files) || rep.Rebuilt != e.def.damaged || rep.Fallbacks != 0 || rep.Corrupt != 0 || rep.Missing != 0 {
			return 0, fmt.Errorf("scrub pass %d: report %+v, want %d scanned, %d rebuilt, no fallbacks", i, rep, len(e.files), e.def.damaged)
		}
		return rep.Bytes, nil
	},
}

// scrubBudget is the blocking path of one ScrubPass over resident replicas
// of which damaged need a rebuild: a block-CRC read and a location
// re-assert per replica, a sidecar load + rebuild per damaged one, and the
// journaled cursor and parity records.
func scrubBudget(resident, damaged int) []budgetRow {
	return []budgetRow{
		{metric: "scrub.blockcrc_mbps", calls: float64(resident)},
		{metric: "parity.rebuild_mbps", calls: float64(damaged)},
		{metric: "replica.add_replica_rtt_us", calls: float64(resident)},
		{metric: "journal.append_sync_us", count: "journal.appends_per_pull"},
	}
}

func init() { scrubRepair.budget = scrubBudget(scrubRepair.resident, scrubRepair.damaged) }

// pubFile is one generated file: where it sits under a site's data
// directory, and (once published) its logical name and catalog CRC.
type pubFile struct {
	rel, lfn, crc string
}

// env is one run of one workload: the grid, the generated inputs and the
// measuring hooks.
type env struct {
	def  *workload
	seed int64
	ops  int    // replay ops, warm-up included
	base string // this run's scratch directory

	tr    *tracer      // nil in the untraced run
	dials *dialCounter // nil in the untraced run

	g     *testbed.Grid
	prod  *core.Site
	cons  []*core.Site
	sites []*core.Site // prod, then cons
	files []pubFile
	rng   *rand.Rand // the damage schedule

	// landed are the subscribers' finished-pull-job counters (publish_fanout).
	landed []*obs.Counter

	content []byte // the seeded base content every file is stamped from
}

func newEnv(def *workload, seed int64, ops int, base string, traced bool) (*env, error) {
	g, err := testbed.NewGrid(base)
	if err != nil {
		return nil, err
	}
	e := &env{def: def, seed: seed, ops: ops, base: base, g: g, rng: rand.New(rand.NewSource(seed))}
	if traced {
		e.tr = newTracer()
		e.dials = &dialCounter{}
	}
	e.content = make([]byte, def.fileSize)
	fillRandom(e.content, uint64(seed))
	return e, nil
}

// addSite adds a site with the grid-wide settings every workload shares:
// durable journal (fsync on), 8+2 parity, a private metrics registry, and
// hedging, breakers and admission at their defaults.
func (e *env) addSite(name string, opts testbed.SiteOptions) (*core.Site, error) {
	opts.Durable = true
	opts.ParityK, opts.ParityM = parityK, parityM
	opts.Metrics = obs.NewRegistry()
	if e.dials != nil {
		opts.DialFunc = e.dials.dial
	}
	s, err := e.g.AddSite(name, opts)
	if err != nil {
		return nil, err
	}
	e.sites = append(e.sites, s)
	return s, nil
}

func (e *env) addProducerConsumers(n int, consumer testbed.SiteOptions) error {
	var err error
	if e.prod, err = e.addSite("prod", testbed.SiteOptions{}); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		c, err := e.addSite(fmt.Sprintf("cons%d", i), consumer)
		if err != nil {
			return err
		}
		e.cons = append(e.cons, c)
	}
	return nil
}

// writeFiles generates n files into the producer's data directory.
func (e *env) writeFiles(n int) error {
	for i := len(e.files); i < n; i++ {
		rel := fmt.Sprintf("d%02x/f%06d.dat", i%256, i)
		stampFile(e.content, uint64(e.seed), i)
		if err := writeSynced(filepath.Join(e.prod.DataDir(), filepath.FromSlash(rel)), e.content); err != nil {
			return err
		}
		e.files = append(e.files, pubFile{rel: rel})
	}
	return nil
}

// writeSynced writes a generated file and fsyncs it, so the kernel is not
// still writing set-up data back while the replay's own fsyncs are timed.
func writeSynced(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// publishFiles generates and publishes n files at the producer (untimed),
// from as many goroutines as the box has cores, at most two.
func (e *env) publishFiles(n int) error {
	if err := e.writeFiles(n); err != nil {
		return err
	}
	var next atomic.Int64
	errs := make(chan error, 2)
	workers := min(2, runtime.GOMAXPROCS(0))
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.files) {
					errs <- nil
					return
				}
				if err := e.publish(i, -1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *env) publish(i, parent int) error {
	sp := e.tr.begin("core.Site.Publish", parent, i)
	pf, err := e.prod.Publish(e.files[i].rel, core.PublishOptions{})
	e.tr.end(sp)
	if err != nil {
		return err
	}
	e.files[i].lfn, e.files[i].crc = pf.LFN, pf.CRC
	return nil
}

func pullOp(e *env, i, parent int) (int64, error) {
	sp := e.tr.begin("core.Site.Get", parent, i)
	err := e.cons[0].Get(e.files[i].lfn)
	e.tr.end(sp)
	return int64(e.def.fileSize), err
}

// fanoutOp is publish-call-start to both subscribers' pulls finished:
// landed, verified, journaled, parity-protected and registered.
// WaitForFile fires when the replica enters the local catalog, which is
// before its sidecar and catalog registration, so the op then waits for
// each subscriber's finished-job counter (the scheduler ticket a Site.Get
// caller would wait on) to reach this op.
func fanoutOp(e *env, i, parent int) (int64, error) {
	if err := e.publish(i, parent); err != nil {
		return 0, err
	}
	for _, sub := range e.cons {
		sp := e.tr.begin("core.Site.WaitForFile", parent, i)
		err := sub.WaitForFile(e.files[i].lfn, opTimeout)
		e.tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	sp := e.tr.begin("bench.wait_registered", parent, i)
	defer e.tr.end(sp)
	deadline := time.Now().Add(opTimeout)
	for _, c := range e.landed {
		for c.Value() < int64(i+1) {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("pull of %s did not finish within %v", e.files[i].lfn, opTimeout)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return int64(len(e.cons) * e.def.fileSize), nil
}

// dropLanded drops file i and its sidecar from the page cache at sites.
func (e *env) dropLanded(i int, sites []*core.Site) {
	for _, s := range sites {
		path := filepath.Join(s.DataDir(), filepath.FromSlash(e.files[i].rel))
		dropFromCache(path)
		dropFromCache(parity.SidecarPath(path))
	}
}

// dropFromCache asks the kernel to drop a (clean, already fsynced) file's
// pages, so the next op's landing reuses them. Without it every replica
// lands on page-cache pages the guest has never touched, and on the
// microVM this was written on the hypervisor faults those in at about
// 3.5 ms per MiB against 0.2 ms for a recycled page: two fifths of a
// bulk_pull op, varying with whatever ran before. No file the replay reads
// again is dropped. Best effort: an error only costs the recycling.
func dropFromCache(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	const fadvDontNeed = 4 // POSIX_FADV_DONTNEED
	syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0)
	f.Close()
}

// opResult is one replay op; times are offsets from the replay's start.
// untimed is the harness's own work around the op (prep before it, the box
// reference and release after it), which the replay's wall time excludes.
// boxRef is how long the fixed CPU loop took right after the op.
type opResult struct {
	start, end time.Duration
	untimed    time.Duration
	boxRef     time.Duration
	bytes      int64
	err        error
}

// boxReference times a fixed piece of CPU work (a table-driven pass over
// 64 KiB, a third of a millisecond on a quiet box). It measures the box,
// not the program: on a shared host its median over a replay says whether
// a neighbour was busy while the replay ran, which the replay's own
// latencies cannot tell apart from a slower program.
func boxReference() time.Duration {
	var buf [64 << 10]byte
	var lut [256]byte
	for i := range lut {
		lut[i] = byte(i*7) ^ 3
	}
	t0 := time.Now()
	for r := 0; r < 12; r++ {
		for i := range buf {
			buf[i] ^= lut[buf[i]]
		}
	}
	d := time.Since(t0)
	boxSink.Store(uint32(buf[5]))
	return d
}

// boxSink keeps the compiler from discarding boxReference's loop.
var boxSink atomic.Uint32

// replay runs ops [from, to) as a closed loop: def.clients goroutines take
// op numbers from a shared counter, each issuing its next op only when its
// last returned. It returns when every op has, so the counters read around
// it cover whole ops only. Times are offsets from the call.
func (e *env) replay(name string, from, to int) []opResult {
	results := make([]opResult, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	root := e.tr.begin(name, -1, -1)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.def.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				r := &results[i-from]
				if e.def.prep != nil {
					p0 := time.Now()
					r.err = e.def.prep(e, i)
					r.untimed = time.Since(p0)
				}
				sp := e.tr.begin("op", root, i)
				r.start = time.Since(t0)
				if r.err == nil {
					r.bytes, r.err = e.def.op(e, i, sp)
				}
				r.end = time.Since(t0)
				e.tr.end(sp)
				r.boxRef = boxReference()
				r.untimed += r.boxRef
				if e.def.release != nil && r.err == nil {
					r0 := time.Now()
					e.def.release(e, i)
					r.untimed += time.Since(r0)
				}
			}
		}()
	}
	wg.Wait()
	e.tr.end(root)
	return results
}

// checkReplicas is the output checker: for every file, every consumer's
// replica has the published CRC, is listed in the catalog at
// that consumer, and has a loadable sidecar for the same content; and no
// staging file is left anywhere.
func (e *env) checkReplicas() []string {
	var bad []string
	fail := func(format string, args ...any) {
		if len(bad) < 20 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for _, f := range e.files {
		if f.lfn == "" {
			fail("%s was never published", f.rel)
			continue
		}
		locs, err := e.g.Catalog.Locations(f.lfn)
		if err != nil {
			fail("%s: catalog locations: %v", f.lfn, err)
			continue
		}
		for _, c := range e.cons {
			path := filepath.Join(c.DataDir(), filepath.FromSlash(f.rel))
			crc, err := gridftp.CRC32File(path)
			if err != nil {
				fail("%s at %s: %v", f.lfn, c.Name(), err)
				continue
			}
			if got := fmt.Sprintf("%08x", crc); got != f.crc {
				fail("%s at %s: crc %s, published %s", f.lfn, c.Name(), got, f.crc)
			}
			want := core.PFN{Addr: c.DataAddr(), Path: f.rel}.String()
			listed := false
			for _, l := range locs {
				listed = listed || l == want
			}
			if !listed {
				fail("%s: catalog does not list %s", f.lfn, want)
			}
			sc, _, err := parity.Load(parity.SidecarPath(path))
			if err != nil {
				fail("%s at %s: sidecar: %v", f.lfn, c.Name(), err)
			} else if sc.DataCRC != crc || sc.K != parityK || sc.M != parityM {
				fail("%s at %s: sidecar describes other content (crc %08x, %d+%d)", f.lfn, c.Name(), sc.DataCRC, sc.K, sc.M)
			}
		}
	}
	for _, s := range e.sites {
		err := filepath.WalkDir(s.DataDir(), func(p string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(p, gridftp.PartSuffix) {
				fail("staging file left behind: %s", p)
			}
			return err
		})
		if err != nil {
			fail("walk %s: %v", s.DataDir(), err)
		}
	}
	return bad
}

func (e *env) close() {
	e.g.Close()
	os.RemoveAll(e.base)
}
