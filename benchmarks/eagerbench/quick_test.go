package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the driver's contract describes it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json has keys %v, want exactly %v", keys, want)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpecMetrics holds one metric list to the contract and to what the
// program printed.
func checkSpecMetrics(t *testing.T, list string, spec []specMetric, bounded bool, got []metric) {
	t.Helper()
	printed := map[string]string{}
	for _, m := range got {
		printed[m.name] = m.unit
	}
	seen := map[string]bool{}
	for _, m := range spec {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("%s: name %q is malformed or repeated", list, m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: %s has malformed unit %q", list, m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: %s is better %q", list, m.Name, m.Better)
		}
		if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
			t.Errorf("%s: %s has a missing, unexpected or out-of-range bound", list, m.Name)
		}
		if unit, ok := printed[m.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not printed", list, m.Name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s printed in %q, BENCHMARK.json says %q", list, m.Name, unit, m.Unit)
		}
	}
	if len(printed) != len(spec) {
		t.Errorf("%s: %d metrics printed, %d in BENCHMARK.json", list, len(printed), len(spec))
	}
}

// TestQuickSuite is the smoke run that keeps the benchmark and its
// correctness checks alive between full runs: every workload, untraced and
// traced, at 5% of the steps. It also holds BENCHMARK.json to the program:
// same workloads, same metric names and units.
func TestQuickSuite(t *testing.T) {
	began := time.Now()
	spec := readBenchmarkFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.EndToEnd) != 9 || len(spec.PerLayer) != 64 {
		t.Errorf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, want 9 and 64", len(spec.EndToEnd), len(spec.PerLayer))
	}
	o := options{seed: 3, quick: true, outDir: t.TempDir()}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		e2e := w.endToEnd(o)
		if !e2e.correct() {
			t.Errorf("%s: end-to-end pass: %d of %d steps failed: %v", w.name, e2e.failed, e2e.attempted, e2e.problems)
		}
		checkSpecMetrics(t, w.name+" end_to_end", spec.EndToEnd, true, e2e.metrics)

		layers := w.perLayer(o)
		if !layers.correct() {
			t.Errorf("%s: traced pass: %d of %d steps failed: %v", w.name, layers.failed, layers.attempted, layers.problems)
		}
		checkSpecMetrics(t, w.name+" per_layer", spec.PerLayer, false, layers.metrics)
		if _, err := os.Stat(o.outDir + "/" + w.name + "-seed3.trace.json"); err != nil {
			t.Errorf("%s: traced pass wrote no trace file: %v", w.name, err)
		}
	}
	// About 8 s on a 2-core box; not asserted, or a loaded machine or the race
	// detector would fail the suite for being slow.
	t.Logf("quick suite took %v", time.Since(began))
}
