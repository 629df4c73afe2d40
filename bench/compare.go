package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects one metric's values over a file's runs of one workload.
func (f *resultFile) series(workload string, traced bool, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// failedRatio is failed ÷ attempted over a file's runs of one workload.
func (f *resultFile) failedRatio(workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return failed, attempted
}

// spread is the distance between the quartiles as a share of the median;
// with fewer than four runs there are no quartiles to speak of.
func spread(v []float64) (float64, bool) {
	if len(v) < 4 {
		return 0, false
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v), true
}

// compareFiles applies every end-to-end metric's bound to every workload:
// one row per pair, each ratio with its base. A pair whose run-to-run
// spread (on either side) is wider than the bound is unresolved, not ok.
// The op's times from the traced runs follow, with their spread and no
// verdict: they carry no bound. It reports whether anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldF, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s  commit %s  seed %d  %gs\nnew: %s  commit %s  seed %d  %gs\n\n",
		oldPath, oldF.Header.Commit, oldF.Seed, oldF.Seconds, newPath, newF.Header.Commit, newF.Seed, newF.Seconds)
	fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "spread", "bound", "verdict")
	regressed := false
	for _, def := range workloads {
		for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], opTimes...) {
			gated := m.Bound > 0
			o, n := oldF.series(def.name, !gated, m.Name), newF.series(def.name, !gated, m.Name)
			if len(o) == 0 || len(n) == 0 {
				if gated {
					fmt.Fprintf(w, "%-15s %-16s missing on one side\n", def.name, m.Name)
				}
				continue
			}
			om, nm := median(o), median(n)
			worse := nm/om - 1
			if m.Better == "higher" {
				worse = 1 - nm/om
			}
			so, okO := spread(o)
			sn, okN := spread(n)
			sp := so
			if sn > sp {
				sp = sn
			}
			verdict, spreadText := "ok", "n/a"
			if okO && okN {
				spreadText = fmt.Sprintf("%.1f%%", 100*sp)
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			switch {
			case !gated:
				verdict, bound = "not gated", "none"
			case okO && okN && sp > m.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %12.4f %8.3f %8s %7s  %s (%d vs %d runs, %s)\n",
				def.name, m.Name, om, nm, nm/om, spreadText, bound, verdict, len(o), len(n), m.Unit)
		}
		of, oa := oldF.failedRatio(def.name)
		nf, na := newF.failedRatio(def.name)
		verdict := "ok"
		if oa > 0 && na > 0 && float64(nf)/float64(na) > float64(of)/float64(oa) {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %8s %7s  %s (any increase regresses)\n",
			def.name, "failed_ratio", fmt.Sprintf("%d/%d", of, oa), fmt.Sprintf("%d/%d", nf, na), "", "", "", verdict)
		for _, name := range exactCounts {
			o, n := oldF.series(def.name, true, name), newF.series(def.name, true, name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict := "identical"
			for _, v := range append(append([]float64(nil), o...), n...) {
				if v != o[0] {
					verdict = "CHANGED (a count, not a speed; expected only if the change says so)"
				}
			}
			fmt.Fprintf(w, "%-15s %-26s %v -> %v  %s\n", def.name, name, o[0], n[0], verdict)
		}
	}
	return regressed, nil
}
