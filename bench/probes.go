package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/faults"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/journal"
	"gdmp/internal/obs"
	"gdmp/internal/parity"
	"gdmp/internal/replica"
	"gdmp/internal/rpc"
	"gdmp/internal/scrub"
	"gdmp/internal/testbed"
	"gdmp/internal/xfer"
)

// probeReps is how many calls a probe's median is taken over: slow for
// calls that take milliseconds, fast for the microsecond ones.
type probeReps struct{ slow, fast int }

var defaultReps = probeReps{slow: 30, fast: 200}

// probes calls each layer's public functions in isolation, single-threaded,
// with the workload's own shapes (file size, 8+2 parity, fsync on, grid
// credentials, the grid's loopback endpoints), and returns each probe's
// median as time per call. It runs after the replay and the checker, on
// the same grid.
func (e *env) probes(reps probeReps) (map[string]time.Duration, error) {
	slowReps, fastReps := reps.slow, reps.fast
	out := make(map[string]time.Duration)
	root := e.tr.begin("probes", -1, -1)
	defer e.tr.end(root)

	// probe times reps calls of fn, each under its own span, and records
	// the median; after, when set, is untimed work following each call. The
	// first failure sticks and later probes are skipped.
	var failed error
	probe := func(name string, reps int, fn func(i int) error, after func(i int)) {
		if failed != nil {
			return
		}
		ds := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			sp := e.tr.begin(name, root, -1)
			t0 := time.Now()
			err := fn(i)
			d := time.Since(t0)
			e.tr.end(sp)
			if err != nil {
				failed = fmt.Errorf("probe %s: %w", name, err)
				return
			}
			if after != nil {
				after(i)
			}
			ds = append(ds, d)
		}
		out[name] = medianDuration(ds)
	}

	ctx := context.Background()
	dir := filepath.Join(e.base, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cred, err := e.g.CA.Issue("bench/probe", time.Hour)
	if err != nil {
		return nil, err
	}
	roots := e.g.Roots
	remote := e.files[0] // a published file of the workload's size at the producer
	// Destinations are new files on every call, dropped from the page cache
	// after it, exactly as the replay lands and then drops every replica.
	dst := func(i int) string { return filepath.Join(dir, fmt.Sprintf("get-%d.dat", i)) }
	local := dst(0)

	// --- gridftp ---
	connect := func(ctx context.Context) (*gridftp.Client, error) {
		return gridftp.DialContext(ctx, e.prod.DataAddr(), cred, roots,
			gridftp.WithParallelism(2), gridftp.WithTimeout(30*time.Second))
	}
	probe("gridftp.get_mbps", slowReps, func(i int) error {
		_, err := gridftp.ReliableGetFile(ctx, connect, remote.rel, dst(i), gridftp.Attempts(1))
		return err
	}, func(i int) { dropFromCache(dst(i)) })
	probe("gridftp.session_setup_us", slowReps, func(int) error {
		cl, err := connect(ctx)
		if err != nil {
			return err
		}
		return cl.Close()
	}, nil)
	probe("gridftp.crc32file_mbps", slowReps, func(int) error {
		_, err := gridftp.CRC32File(local)
		return err
	}, nil)

	// --- parity and scrub ---
	var sc *parity.Sidecar
	probe("parity.create_mbps", slowReps, func(int) error {
		var err error
		sc, err = parity.CreateFile(local, parityK, parityM)
		return err
	}, nil)
	if failed != nil {
		return nil, failed // the probes below need the sidecar
	}
	scPath := parity.SidecarPath(local)
	probe("parity.sidecar_write_ms", slowReps, func(i int) error {
		_, err := sc.WriteFile(parity.SidecarPath(dst(i)))
		return err
	}, func(i int) { dropFromCache(parity.SidecarPath(dst(i))) })
	probe("scrub.blockcrc_mbps", slowReps, func(int) error {
		_, _, _, err := scrub.BlockCRC32File(ctx, local, sc.BlockSize, nil)
		return err
	}, nil)
	// Rebuild: a copy of the file with m damaged blocks, repaired from the
	// sidecar each time (Rebuild returns a new buffer, the copy stays bad).
	damagedPath := filepath.Join(dir, "damaged.dat")
	good, err := os.ReadFile(local)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(damagedPath, good, 0o644); err != nil {
		return nil, err
	}
	if _, err := faults.FlipBlocks(damagedPath, e.seed, sc.BlockSize, parityM); err != nil {
		return nil, err
	}
	probe("parity.rebuild_mbps", slowReps, func(int) error {
		loaded, _, err := parity.Load(scPath)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(damagedPath)
		if err != nil {
			return err
		}
		_, rebuilt, err := loaded.Rebuild(data)
		if err == nil && len(rebuilt) == 0 {
			err = fmt.Errorf("nothing was rebuilt")
		}
		return err
	}, nil)

	// --- replica catalog over authenticated loopback ---
	rc, err := replica.Dial(e.g.CatalogAddr, cred, roots)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	lfn := remote.lfn
	probe("replica.lookup_rtt_us", fastReps, func(int) error {
		_, err := rc.Lookup(ctx, lfn)
		return err
	}, nil)
	probe("replica.locations_rtt_us", fastReps, func(int) error {
		_, err := rc.Locations(ctx, lfn)
		return err
	}, nil)
	probe("replica.add_replica_rtt_us", fastReps, func(i int) error {
		// A fresh location each call, as a landing pull records one.
		return rc.AddReplica(ctx, lfn, core.PFN{Addr: "127.0.0.1:1", Path: fmt.Sprintf("bench-probe/%d", i)}.String())
	}, nil)
	probe("replica.set_attrs_rtt_us", fastReps, func(int) error {
		return rc.SetAttrs(ctx, lfn, map[string]string{"bench.probe": "1"})
	}, nil)
	probe("replica.register_rtt_us", fastReps, func(i int) error {
		return rc.Register(ctx, fmt.Sprintf("lfn://bench-probe/%d", i), map[string]string{
			replica.AttrSize: "1", replica.AttrCRC: "00000000"})
	}, nil)

	// --- rpc and gsi ---
	deadlineCtx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	warm, err := rpc.DialContext(ctx, e.prod.Addr(), cred, roots)
	if err != nil {
		return nil, err
	}
	defer warm.Close()
	probe("rpc.call_rtt_us", fastReps, func(int) error {
		_, err := warm.CallContext(deadlineCtx, core.MethodPing, nil)
		return err
	}, nil)
	probe("rpc.dial_handshake_us", slowReps, func(int) error {
		cl, err := rpc.DialContext(ctx, e.prod.Addr(), cred, roots)
		if err != nil {
			return err
		}
		return cl.Close()
	}, nil)
	probe("gsi.handshake_us", slowReps, func(int) error {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		srv := make(chan error, 1)
		go func() {
			_, err := gsi.Handshake(b, cred, roots, false)
			srv <- err
		}()
		if _, err := gsi.Handshake(a, cred, roots, true); err != nil {
			return err
		}
		return <-srv
	}, nil)

	// --- journal, xfer, admission: a private instance of each ---
	reg := obs.NewRegistry()
	j, _, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	record := make([]byte, 96) // about the size of a journaled FileInfo
	probe("journal.append_sync_us", fastReps, func(int) error {
		return j.Append(record)
	}, nil)
	sched := xfer.New(xfer.Config{Workers: 1, Registry: reg})
	defer sched.Close()
	probe("xfer.submit_wait_us", fastReps, func(i int) error {
		return sched.Submit(fmt.Sprintf("probe-%d", i), 0, func(context.Context) error { return nil }).Wait(ctx)
	}, nil)
	ctrl := admission.New(admission.Config{Registry: reg})
	probe("admission.admit_us", fastReps, func(int) error {
		release, err := ctrl.Admit(ctx, admission.Bulk, admission.Request{})
		if err != nil {
			return err
		}
		release()
		return nil
	}, nil)

	// --- core.Site.Publish alone: a site nobody subscribes to ---
	lone, err := e.addSite("probe", testbed.SiteOptions{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < slowReps; i++ {
		stampFile(e.content, uint64(e.seed), 1<<20+i)
		if _, err := e.g.WriteSiteFile(lone.Name(), fmt.Sprintf("p%03d.dat", i), e.content); err != nil {
			return nil, err
		}
	}
	probe("core.publish_ms", slowReps, func(i int) error {
		_, err := lone.Publish(fmt.Sprintf("p%03d.dat", i), core.PublishOptions{})
		return err
	}, func(i int) {
		dropFromCache(parity.SidecarPath(filepath.Join(lone.DataDir(), fmt.Sprintf("p%03d.dat", i))))
	})
	return out, failed
}
