// Pull-scheduler benchmark: ProcessPending over a latency-shaped WAN
// link, sequential (one worker) versus the scheduler's default pool.
// Every pull pays several round trips to the source site (stage RPC,
// GridFTP control dialog, data channels), so with K workers those round
// trips overlap and a 16-file drain finishes close to K times sooner.
//
// The run is gated behind BENCH_PULL_OUT so `go test ./...` stays fast:
//
//	BENCH_PULL_OUT=BENCH_pull.json go test -run TestPullSchedulerBenchmark -v .
//
// `make bench-pull` wraps exactly that; CI runs it as a smoke step and
// uploads the JSON.
package gdmp_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"gdmp/internal/testbed"
	"gdmp/internal/wan"
)

const (
	pullBenchFiles    = 16
	pullBenchBytes    = 64 << 10
	pullBenchWorkers  = 4
	pullBenchRateMbps = 200.0
	pullBenchRTT      = 40 * time.Millisecond
)

// pullBenchResult is the BENCH_pull.json document.
type pullBenchResult struct {
	Benchmark string  `json:"benchmark"`
	Files     int     `json:"files"`
	FileBytes int     `json:"file_bytes"`
	RateMbps  float64 `json:"link_rate_mbps"`
	RTTMs     float64 `json:"link_rtt_ms"`
	Runs      []struct {
		Workers int     `json:"workers"`
		Seconds float64 `json:"seconds"`
	} `json:"runs"`
	Speedup float64 `json:"speedup"`
}

func TestPullSchedulerBenchmark(t *testing.T) {
	out := os.Getenv("BENCH_PULL_OUT")
	if out == "" {
		t.Skip("set BENCH_PULL_OUT=<path> to run the pull-scheduler benchmark")
	}

	// One ProcessPending drain of pullBenchFiles notices with a pool of
	// the given size. The WAN latency applies only to the producer link;
	// the replica catalog stays on the fast local path (its client is a
	// single shared connection, so shaping it would serialize the very
	// round trips the pool is meant to overlap).
	run := func(workers int) time.Duration {
		g, err := testbed.NewGrid(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		prod, err := g.AddSite("cern.ch", testbed.SiteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wanDial := wan.NewLink(pullBenchRateMbps, pullBenchRTT).Dialer(nil)
		catalogAddr := g.CatalogAddr
		dial := func(network, addr string) (net.Conn, error) {
			if addr == catalogAddr {
				return net.Dial(network, addr)
			}
			return wanDial(network, addr)
		}
		cons, err := g.AddSite("anl.gov", testbed.SiteOptions{
			DialFunc:    dial,
			PullWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cons.SubscribeTo(prod.Addr()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pullBenchFiles; i++ {
			publishData(t, g, prod, fmt.Sprintf("bench/f%02d.db", i),
				testbed.MakeData(pullBenchBytes, int64(100+i)))
		}
		waitUntil(t, 30*time.Second, "all pending notices", func() bool {
			return len(cons.Pending()) == pullBenchFiles
		})
		start := time.Now()
		n, err := cons.ProcessPending()
		elapsed := time.Since(start)
		if err != nil || n != pullBenchFiles {
			t.Fatalf("ProcessPending(workers=%d) = %d, %v", workers, n, err)
		}
		return elapsed
	}

	seq := run(1)
	par := run(pullBenchWorkers)
	speedup := seq.Seconds() / par.Seconds()
	t.Logf("sequential %v, %d workers %v, speedup %.2fx", seq, pullBenchWorkers, par, speedup)

	res := pullBenchResult{
		Benchmark: "pull_scheduler",
		Files:     pullBenchFiles,
		FileBytes: pullBenchBytes,
		RateMbps:  pullBenchRateMbps,
		RTTMs:     float64(pullBenchRTT) / float64(time.Millisecond),
		Speedup:   speedup,
	}
	for _, r := range []struct {
		workers int
		d       time.Duration
	}{{1, seq}, {pullBenchWorkers, par}} {
		res.Runs = append(res.Runs, struct {
			Workers int     `json:"workers"`
			Seconds float64 `json:"seconds"`
		}{r.workers, r.d.Seconds()})
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)

	if speedup < 3 {
		t.Errorf("speedup %.2fx < 3x: the worker pool is not overlapping transfer latency", speedup)
	}
}
