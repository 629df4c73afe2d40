// Command gdmp is the GDMP client: the command-line face of the four
// services of Section 4.1 plus catalog queries.
//
// Usage:
//
//	gdmp -cred user.pem -ca ca.pem <subcommand> [args]
//
//	ping        <site-ctl-addr>                  check a site is alive
//	status      <site-ctl-addr>                  a site's metrics, formatted
//	stats       <site-ctl-addr>                  full metrics dump of a site
//	catalog     <site-ctl-addr>                  dump a site's file catalog
//	fsck        <site-ctl-addr>                  full on-demand integrity scrub
//	subscribe   <producer-ctl> <myname> <myctl>  subscribe a site to a producer
//	unsubscribe <producer-ctl> <myname>
//	stage       <site-ctl-addr> <lfn>            stage a file onto disk
//	locations   -rc <addr> <lfn>                 all replicas of a file
//	which       -rc <addr> <lfn>                 RLI: sites that might hold a file
//	rli         -rc <addr>                       RLI: live site digests
//	query       -rc <addr> <filter>              LDAP-style catalog search
//	register    -rc <addr> <lfn> <pfn>           record a replica in the catalog
//	fetch       <pfn> <local-path> [-p N]        reliable GridFTP download
//	fetch-lfn   -rc <addr> <lfn> <local-path>    resolve via catalog, then fetch
//	pull        -rc <addr> <dest-dir> <lfn>...   concurrent multi-file fetch
//
// fetch takes a gridftp://host:port/path physical name and performs the
// Data Mover's restartable, CRC-verified retrieval; fetch-lfn resolves a
// logical name through the replica catalog first. pull fetches a batch of
// logical files through the replication scheduler: -pull-workers bounds
// concurrency and -per-source caps simultaneous transfers per source.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/gridftp"
	"gdmp/internal/gsi"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
	"gdmp/internal/xfer"
)

func main() {
	credPath := flag.String("cred", "", "client credential file (required)")
	caPath := flag.String("ca", "", "trust anchor certificate (required)")
	rcAddr := flag.String("rc", "", "replica catalog address (for locations/query)")
	parallel := flag.Int("p", 2, "parallel streams (for fetch)")
	attempts := flag.Int("attempts", 3, "restart attempts for fetch/fetch-lfn")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "initial backoff between restart attempts")
	timeout := flag.Duration("timeout", 0, "overall deadline for the command (0 = none)")
	pullWorkers := flag.Int("pull-workers", 4, "concurrent transfers for pull")
	perSource := flag.Int("per-source", 0, "max concurrent pull transfers per source (0 = unlimited)")
	flag.Parse()

	pol := retry.DefaultPolicy()
	pol.Attempts = *attempts
	pol.BaseDelay = *retryBase
	// An interrupt (or -timeout expiry) cancels the context, which aborts
	// in-flight RPCs and transfers instead of letting them run out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *credPath, *caPath, *rcAddr, *parallel, *pullWorkers, *perSource, pol, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "gdmp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, credPath, caPath, rcAddr string, parallel, pullWorkers, perSource int, pol retry.Policy, args []string) error {
	if credPath == "" || caPath == "" {
		return fmt.Errorf("-cred and -ca are required")
	}
	if len(args) < 1 {
		return fmt.Errorf("missing subcommand")
	}
	cred, err := gsi.LoadCredential(credPath)
	if err != nil {
		return err
	}
	anchor, err := gsi.LoadCertificate(caPath)
	if err != nil {
		return err
	}
	roots := []*gsi.Certificate{anchor}

	call := func(addr, method string, enc *rpc.Encoder) (*rpc.Decoder, error) {
		cl, err := rpc.DialContext(ctx, addr, cred, roots, rpc.WithTimeout(30*time.Second))
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		return cl.CallContext(ctx, method, enc)
	}
	// fetch is the Data Mover's restartable, CRC-verified retrieval of one
	// physical file.
	fetch := func(ctx context.Context, pfn core.PFN, local string) (gridftp.TransferStats, error) {
		connect := func(ctx context.Context) (*gridftp.Client, error) {
			return gridftp.DialContext(ctx, pfn.Addr, cred, roots, gridftp.WithParallelism(parallel))
		}
		return gridftp.ReliableGetFile(ctx, connect, pfn.Path, local, pol)
	}

	switch args[0] {
	case "ping":
		if len(args) != 2 {
			return fmt.Errorf("usage: ping <site-ctl-addr>")
		}
		d, err := call(args[1], core.MethodPing, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%s is alive (site %q)\n", args[1], d.String())
		return d.Finish()

	case "catalog":
		if len(args) != 2 {
			return fmt.Errorf("usage: catalog <site-ctl-addr>")
		}
		d, err := call(args[1], core.MethodCatalog, nil)
		if err != nil {
			return err
		}
		files, err := core.DecodeCatalogReply(d)
		if err != nil {
			return err
		}
		fmt.Printf("%d files:\n", len(files))
		for _, fi := range files {
			fmt.Printf("  %s  path=%s size=%d crc=%s type=%s state=%s\n",
				fi.LFN, fi.Path, fi.Size, fi.CRC32, fi.FileType, fi.State)
		}
		return nil

	case "subscribe":
		if len(args) != 4 {
			return fmt.Errorf("usage: subscribe <producer-ctl> <myname> <myctl>")
		}
		var e rpc.Encoder
		e.String(args[2])
		e.String(args[3])
		if _, err := call(args[1], core.MethodSubscribe, &e); err != nil {
			return err
		}
		fmt.Printf("%s subscribed to %s\n", args[2], args[1])
		return nil

	case "unsubscribe":
		if len(args) != 3 {
			return fmt.Errorf("usage: unsubscribe <producer-ctl> <myname>")
		}
		var e rpc.Encoder
		e.String(args[2])
		if _, err := call(args[1], core.MethodUnsubscribe, &e); err != nil {
			return err
		}
		fmt.Printf("%s unsubscribed from %s\n", args[2], args[1])
		return nil

	case "stage":
		if len(args) != 3 {
			return fmt.Errorf("usage: stage <site-ctl-addr> <lfn>")
		}
		var e rpc.Encoder
		e.String(args[2])
		if _, err := call(args[1], core.MethodStage, &e); err != nil {
			return err
		}
		fmt.Printf("%s staged at %s\n", args[2], args[1])
		return nil

	case "status":
		// status <site-ctl-addr>: the site's metrics (the text `stats`
		// prints), formatted; name and metrics come over one client.
		if len(args) != 2 {
			return fmt.Errorf("usage: status <site-ctl-addr>")
		}
		cl, err := rpc.DialContext(ctx, args[1], cred, roots, rpc.WithTimeout(30*time.Second))
		if err != nil {
			return err
		}
		defer cl.Close()
		return printStatus(ctx, os.Stdout, cl)

	case "fsck":
		// fsck <site-ctl-addr>: run a full scrub pass on the site and
		// report what it found and repaired.
		if len(args) != 2 {
			return fmt.Errorf("usage: fsck <site-ctl-addr>")
		}
		d, err := call(args[1], core.MethodFsck, nil)
		if err != nil {
			return err
		}
		rep, err := core.DecodeFsckReply(d)
		if err != nil {
			return err
		}
		fmt.Printf("fsck %s: %d files scanned (%d bytes), %d corrupt, %d missing, %d repairs queued\n",
			args[1], rep.Scanned, rep.Bytes, rep.Corrupt, rep.Missing, rep.Repairs)
		if rep.Rebuilt+rep.Fallbacks > 0 {
			fmt.Printf("parity: %d rebuilt in place, %d fell back to re-pull\n", rep.Rebuilt, rep.Fallbacks)
		}
		return nil

	case "stats":
		// stats <site-ctl-addr>: dump the site's instrumentation registry
		// (Prometheus text format) over the Request Manager.
		if len(args) != 2 {
			return fmt.Errorf("usage: stats <site-ctl-addr>")
		}
		d, err := call(args[1], core.MethodMetrics, nil)
		if err != nil {
			return err
		}
		text := d.String()
		if err := d.Finish(); err != nil {
			return err
		}
		fmt.Print(text)
		return nil

	case "locations":
		if rcAddr == "" || len(args) != 2 {
			return fmt.Errorf("usage: -rc <addr> locations <lfn>")
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		defer rc.Close()
		locs, err := rc.Locations(ctx, args[1])
		if err != nil {
			return err
		}
		for _, l := range locs {
			fmt.Println(l)
		}
		return nil

	case "which":
		// which <lfn>: ask the RLI which sites' Local Replica Catalogs
		// might hold the file. Bloom-digest based, so false positives are
		// possible; confirm with an LRC point query (gdmp catalog or a
		// pull) before trusting a hit.
		if rcAddr == "" || len(args) != 2 {
			return fmt.Errorf("usage: -rc <addr> which <lfn>")
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		defer rc.Close()
		sites, err := rc.Which(ctx, args[1])
		if err != nil {
			return err
		}
		if len(sites) == 0 {
			fmt.Printf("no site digest matches %s\n", args[1])
			return nil
		}
		for _, s := range sites {
			fmt.Printf("%s  ctl=%s gen=%d\n", s.Name, s.Addr, s.Gen)
		}
		return nil

	case "rli":
		// rli: list the live entries of the Replica Location Index — each
		// site's last pushed digest generation, LFN count, and remaining
		// soft-state lifetime.
		if rcAddr == "" || len(args) != 1 {
			return fmt.Errorf("usage: -rc <addr> rli")
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		defer rc.Close()
		sites, err := rc.RLISites(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%d live site digests:\n", len(sites))
		for _, s := range sites {
			fmt.Printf("  %s  ctl=%s gen=%d lfns=%d expires-in=%v\n",
				s.Name, s.Addr, s.Gen, s.Count, s.ExpiresIn.Round(time.Second))
		}
		return nil

	case "query":
		if rcAddr == "" || len(args) != 2 {
			return fmt.Errorf("usage: -rc <addr> query <filter>")
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		defer rc.Close()
		files, err := rc.Query(ctx, args[1])
		if err != nil {
			return err
		}
		for _, f := range files {
			var attrs []string
			for k, v := range f.Attrs {
				attrs = append(attrs, k+"="+v)
			}
			fmt.Printf("%s  %s\n", f.Name, strings.Join(attrs, " "))
		}
		return nil

	case "register":
		// register <lfn> <pfn>: record an existing physical file in the
		// replica catalog (operator-driven publication).
		if rcAddr == "" || len(args) != 3 {
			return fmt.Errorf("usage: -rc <addr> register <lfn> <pfn>")
		}
		if _, err := core.ParsePFN(args[2]); err != nil {
			return err
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		defer rc.Close()
		if err := rc.Register(ctx, args[1], map[string]string{
			replica.AttrOwner: cred.Identity().String(),
		}); err != nil {
			return err
		}
		if err := rc.AddReplica(ctx, args[1], args[2]); err != nil {
			return err
		}
		fmt.Printf("registered %s -> %s\n", args[1], args[2])
		return nil

	case "fetch-lfn":
		// fetch-lfn <lfn> <local-path>: resolve the logical name through
		// the catalog, pick a replica, and run the Data Mover retrieval.
		if rcAddr == "" || len(args) != 3 {
			return fmt.Errorf("usage: -rc <addr> fetch-lfn <lfn> <local-path>")
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		locs, err := rc.Locations(ctx, args[1])
		rc.Close()
		if err != nil {
			return err
		}
		pfn, err := firstPFN(locs)
		if err != nil {
			return fmt.Errorf("%s: %w", args[1], err)
		}
		stats, err := fetch(ctx, pfn, args[2])
		if err != nil {
			return err
		}
		fmt.Printf("fetched %s from %s: %d bytes (%.2f Mbps)\n",
			args[1], pfn.Addr, stats.Bytes, stats.RateMbps())
		return nil

	case "pull":
		// pull <dest-dir> <lfn>...: resolve each logical file through the
		// catalog and fetch the batch through the replication scheduler,
		// -pull-workers at a time, at most -per-source per source host.
		if rcAddr == "" || len(args) < 3 {
			return fmt.Errorf("usage: -rc <addr> pull <dest-dir> <lfn>...")
		}
		destDir := args[1]
		if err := os.MkdirAll(destDir, 0o755); err != nil {
			return err
		}
		rc, err := replica.DialContext(ctx, rcAddr, cred, roots)
		if err != nil {
			return err
		}
		defer rc.Close()
		sched := xfer.New(xfer.Config{Workers: pullWorkers, PerSource: perSource})
		defer sched.Close()
		type pull struct {
			lfn string
			tk  *xfer.Ticket
		}
		pulls := make([]pull, 0, len(args)-2)
		for _, lfn := range args[2:] {
			lfn := lfn
			pulls = append(pulls, pull{lfn, sched.Submit(lfn, 0, func(jobCtx context.Context) error {
				locs, err := rc.Locations(jobCtx, lfn)
				if err != nil {
					return err
				}
				pfn, err := firstPFN(locs)
				if err != nil {
					return err
				}
				release, err := sched.AcquireSource(jobCtx, pfn.Addr)
				if err != nil {
					return err
				}
				defer release()
				dst := filepath.Join(destDir, filepath.FromSlash(path.Clean("/"+pfn.Path)))
				if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
					return err
				}
				_, err = fetch(jobCtx, pfn, dst)
				return err
			})})
		}
		var errs []error
		for _, p := range pulls {
			if err := p.tk.Wait(ctx); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", p.lfn, err))
				continue
			}
			fmt.Printf("pulled %s\n", p.lfn)
		}
		return errors.Join(errs...)

	case "fetch":
		if len(args) != 3 {
			return fmt.Errorf("usage: fetch <pfn> <local-path>")
		}
		pfn, err := core.ParsePFN(args[1])
		if err != nil {
			return err
		}
		stats, err := fetch(ctx, pfn, args[2])
		if err != nil {
			return err
		}
		fmt.Printf("fetched %d bytes in %v (%.2f Mbps, %d streams, %d attempts)\n",
			stats.Bytes, stats.Elapsed.Round(time.Millisecond),
			stats.RateMbps(), stats.Streams, stats.Attempts)
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// firstPFN picks the first catalog location that parses as a physical
// file name.
func firstPFN(locs []string) (core.PFN, error) {
	for _, l := range locs {
		if p, err := core.ParsePFN(l); err == nil {
			return p, nil
		}
	}
	return core.PFN{}, fmt.Errorf("no usable replica (locations: %v)", locs)
}
