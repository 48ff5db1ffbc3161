package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's child processes re-execute it with this variable set.
func TestMain(m *testing.M) {
	if os.Getenv("FESBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at tiny size through the whole harness —
// child processes, output checks, end-to-end and per-layer reduction —
// so the benchmark cannot rot silently between full runs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every workload in child processes")
	}
	t.Setenv("FESBENCH_AS_MAIN", "1")
	root, err := repoRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			o := options{workload: w.name, seed: 7, seconds: 0, trace: trace, tiny: true, root: root}
			res, err := bench(context.Background(), o, w.name)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %d: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEndSpecs
			if trace == 1 {
				specs = perLayerSpecs
			}
			if len(res.Metrics) != len(specs) {
				t.Fatalf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			var cpu, alloc float64
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Fatalf("%s trace %d: metric %s = %+v", w.name, trace, s.name, m)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, m.Value)
				}
				switch {
				case strings.HasSuffix(s.name, ".cpu_share"):
					cpu += m.Value
				case strings.HasSuffix(s.name, ".alloc_share"):
					alloc += m.Value
				}
			}
			if trace == 1 && (math.Abs(cpu-1) > 1e-9 || math.Abs(alloc-1) > 1e-9) {
				t.Errorf("%s: CPU shares sum to %v, alloc shares to %v", w.name, cpu, alloc)
			}
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's workload and
// metric lists in step with what the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, doc.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []entry, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, harness reports %d", kind, len(got), len(want))
		}
		for i, s := range want {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the harness", kind, i, got[i], s)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndSpecs)
	check("per_layer", doc.PerLayer, perLayerSpecs)
}

// TestCrossCheckAcrossTraceModes runs the cross-run check in the order a
// caller may use: a traced run pins counts that an untraced run of the
// same seed does not read, and that must not fail the untraced run. A
// count that does change must still fail.
func TestCrossCheckAcrossTraceModes(t *testing.T) {
	o := options{workload: "fleet", seed: 7, root: t.TempDir()}
	untraced := func(events float64) *repResult {
		return &repResult{Digest: "d", Exact: map[string]float64{"simnet.events": events}}
	}
	traced := func(requests float64) *repResult {
		return &repResult{Digest: "d", Exact: map[string]float64{"simnet.events": 10, "frontend.requests": requests}}
	}
	steps := []struct {
		reps   []*repResult
		traced *repResult
		fail   bool
	}{
		{[]*repResult{untraced(10)}, nil, false},
		{[]*repResult{untraced(10)}, traced(5), false},
		{[]*repResult{untraced(10), untraced(10)}, nil, false},
		{[]*repResult{untraced(11)}, nil, true},
		{[]*repResult{untraced(10)}, traced(6), true},
		{[]*repResult{{Digest: "e", Exact: map[string]float64{}}}, nil, true},
	}
	for i, s := range steps {
		fails := crossCheck(o, "fleet", s.reps, s.traced)
		if (len(fails) > 0) != s.fail {
			t.Errorf("step %d: failures %q, want failure %v", i, fails, s.fail)
		}
	}
}
