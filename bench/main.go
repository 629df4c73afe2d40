// Command bench is the repository's end-to-end replication benchmark: a
// grid of real sites over loopback TCP with fsync on, replayed by four
// closed-loop workloads, with the end-to-end metrics measured untraced and
// the per-layer budget measured in a separate traced run. See README.md.
//
//	sh bench/run.sh --workload bulk_pull --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh --trace 1 --runs 5 --out new.json   # every workload
//	sh bench/run.sh --compare old.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// buildDir is where the benchmark keeps everything it writes, inside the
// checkout it is run from.
const buildDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 20010807, "seed of the generated inputs and the damage schedule")
	seconds := flag.Float64("seconds", 10, "nominal length of the timed replay; fixes the op count")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and budget (without --workload: both)")
	runs := flag.Int("runs", 1, "without --workload: runs per workload and mode")
	out := flag.String("out", filepath.Join(buildDir, "results.json"), "without --workload: file the results are written to")
	compare := flag.Bool("compare", false, "compare two result files: --compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: --compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	scratch := filepath.Join(buildDir, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}
	hdr := readHeader(scratch)
	if *name == "" {
		if err := runAll(hdr, *seed, *seconds, *trace == 1, *runs, *out); err != nil {
			fatal(err)
		}
		return
	}

	def := findWorkload(*name)
	if def == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	hdr.print()
	cfg := runConfig{def: def, seed: *seed, seconds: *seconds, traced: *trace == 1, scratch: scratch, reps: defaultReps}
	if cfg.traced {
		cfg.traceOut = filepath.Join(buildDir, "trace."+def.name+".json")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// resultFile is what runAll writes and --compare reads.
type resultFile struct {
	Header  header      `json:"header"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Result   result `json:"result"`
}

// runAll runs every workload in child processes of their own, so peak RSS,
// GC state and obs.Default do not leak from one run into the next: the
// untraced runs for the end-to-end metrics and, with traced set, the traced
// runs at the same seed for the per-layer ones.
func runAll(hdr header, seed int64, seconds float64, traced bool, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Header: hdr, Seed: seed, Seconds: seconds}
	failed := false
	for _, def := range workloads {
		// runs untraced runs, then as many traced ones: the op's speed is
		// measured in the traced run, and its median wants more than one.
		for r := 0; r < 2*runs; r++ {
			mode := r >= runs
			if mode && !traced {
				break
			}
			traceArg := "0"
			if mode {
				traceArg = "1"
			}
			cmd := exec.Command(exe, "--workload", def.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", traceArg)
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s: no result line (%v): %v", def.name, runErr, err)
			}
			failed = failed || !res.Correct
			file.Runs = append(file.Runs, runRecord{Workload: def.name, Traced: mode, Result: res})
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("# results written to %s\n", out)
	if failed {
		return fmt.Errorf("a workload failed its output check")
	}
	return nil
}
