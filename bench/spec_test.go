package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestMetricNameValidation(t *testing.T) {
	ok := []metricDef{{Name: "setup_s", Better: "lower"}, {Name: "store.append_calls", Better: "lower"}, {Name: "p99-9.x_y", Better: "higher"}}
	if err := validateMetrics(ok, maxEndToEnd); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	for _, bad := range []string{"", "query p50", "latency/ms", ".leading", "ünicode", strings.Repeat("x", 65)} {
		if err := validateMetrics([]metricDef{{Name: bad, Better: "lower"}}, maxEndToEnd); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if err := validateMetrics([]metricDef{{Name: "a", Better: "lower"}, {Name: "a", Better: "lower"}}, maxEndToEnd); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := validateMetrics([]metricDef{{Name: "a", Better: "sideways"}}, maxEndToEnd); err == nil {
		t.Error("direction \"sideways\" accepted")
	}
	if err := validateMetrics(make([]metricDef, maxEndToEnd+1), maxEndToEnd); err == nil {
		t.Error("17 end-to-end metrics accepted")
	}
	if err := validateMetrics(nil, maxPerLayer); err == nil {
		t.Error("empty metric list accepted")
	}
}

func TestCatalogueMeetsTheContract(t *testing.T) {
	if err := validateMetrics(endToEnd, maxEndToEnd); err != nil {
		t.Errorf("end-to-end catalogue: %v", err)
	}
	if err := validateMetrics(perLayer, maxPerLayer); err != nil {
		t.Errorf("per-layer catalogue: %v", err)
	}
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	layers := map[string]bool{}
	for _, d := range perLayer {
		module, _, ok := strings.Cut(d.Name, ".")
		if !ok {
			t.Errorf("per-layer metric %q is not <module>.<metric>", d.Name)
		}
		layers[module] = true
	}
	for _, module := range []string{"xmltree", "pattern", "postings", "store", "dht", "dpp", "blockcache", "sbf", "twigjoin", "kadop", "trace"} {
		if !layers[module] {
			t.Errorf("layer %s reports no metric", module)
		}
	}
}

// The catalogue the program reports from and BENCHMARK.json must name
// the same workloads and metrics, row for row.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range file {
			want := prog[i]
			want.Exact = false
			if file[i] != want {
				t.Errorf("%s row %d: BENCHMARK.json %+v, program %+v", kind, i, file[i], want)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", f.Paths)
	}
}

// Every name in a run's output is in the catalogue and vice versa.
func TestRenderRejectsDrift(t *testing.T) {
	full := &outcome{attempted: 3, metrics: map[string]float64{}}
	for _, d := range endToEnd {
		full.metrics[d.Name] = 1.5
	}
	line, err := render(endToEnd, full)
	if err != nil {
		t.Fatalf("complete outcome rejected: %v", err)
	}
	if !line.Correct || line.Attempted != 3 || line.Failed != 0 {
		t.Errorf("rendered %+v", line)
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("rendered %d metrics, the catalogue has %d", len(line.Metrics), len(endToEnd))
	}
	if got := line.Metrics["setup_s"]; got.Unit != "s" || got.Value != 1.5 {
		t.Errorf("setup_s rendered as %+v", got)
	}

	delete(full.metrics, "query_p50_ms")
	if _, err := render(endToEnd, full); err == nil {
		t.Error("outcome without query_p50_ms accepted")
	}
	full.metrics["query_p50_ms"] = 1
	full.metrics["made_up"] = 1
	if _, err := render(endToEnd, full); err == nil {
		t.Error("outcome with a metric outside the catalogue accepted")
	}

	failed := &outcome{attempted: 3, failed: 1, metrics: full.metrics}
	delete(failed.metrics, "made_up")
	if line, err := render(endToEnd, failed); err != nil || line.Correct {
		t.Errorf("a failed operation must render correct=false (line %+v, err %v)", line, err)
	}
}
