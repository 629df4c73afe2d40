package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"gdmp/internal/gsi"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps the declaration at the repository root
// and the tables the runner emits from identical, and inside the limits the
// declaration's schema sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the schema", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(decl.Workloads) != len(workloads) || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the runner (at most 8)", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q, runner has %q (or their why differs)", i, d.Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d in the runner (at most 16)", len(decl.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		name(m.Name)
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, runner has %+v", i, d, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v is outside the schema", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the runner (at most 128)", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		d := decl.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: declared %+v, runner has %+v", i, d, m)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v is not what the runner is built for", decl.RunSeconds, decl.Paths)
	}
	for _, row := range append(append([]budgetRow(nil), publishFanout.budget...), scrubRepair.budget...) {
		if !seen[row.metric] || (row.count != "" && !seen[row.count]) {
			t.Errorf("budget row %+v names no declared metric", row)
		}
	}
}

// TestSmoke replays all four workloads in-process at a small fraction of
// their size, untraced and traced, and asserts that the output checker
// passes and that each mode emits exactly the declared metrics.
func TestSmoke(t *testing.T) {
	oldBits := gsi.KeyBits
	gsi.KeyBits = 1024 // the grid's trust domain, not key strength, is under test
	defer func() { gsi.KeyBits = oldBits }()

	for _, def := range workloads {
		small := *def
		small.fileSize = min(def.fileSize, 256<<10)
		if def.resident > 0 {
			small.resident, small.damaged = 4, 1
			small.budget = scrubBudget(small.resident, small.damaged)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{
				def: &small, seed: 7, seconds: 0.4, traced: traced,
				scratch: t.TempDir(), reps: probeReps{slow: 3, fast: 5},
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Errorf("%s (traced %v): correct %v, %d failed of %d", def.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, want %d", def.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s missing or in %q", def.name, traced, m.Name, got.Unit)
				}
			}
		}
	}
}
