package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func declared(defs []metricDef) []benchmarkMetric {
	out := make([]benchmarkMetric, len(defs))
	for i, d := range defs {
		out[i] = benchmarkMetric{d.name, d.unit, d.better, d.bound}
	}
	return out
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}

// TestToyWorkloads runs every workload end to end at toy size and checks the
// run is correct and reports exactly the declared end-to-end metrics.
func TestToyWorkloads(t *testing.T) {
	applyRuntime()
	for _, w := range workloads {
		w := w.toy()
		r, err := runTimed(w, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.correct {
			t.Errorf("%s: incorrect: %v", w.name, r.problems)
		}
		if attempted, failed := r.attempted(); attempted == 0 || failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, attempted, failed)
		}
		got := sortedKeys(withUnits(endToEnd(r), endToEndUnits))
		if want := sortedNames(endToEndMetrics); !reflect.DeepEqual(got, want) {
			t.Errorf("%s prints end-to-end metrics %v, declared %v", w.name, got, want)
		}
	}
}

// TestToyTrace runs the traced run at toy size on the workload with no
// simulated latency and checks it reports exactly the declared per-layer
// metrics, writes its span file, and replays to DetectTable's bytes (the run
// fails otherwise).
func TestToyTrace(t *testing.T) {
	applyRuntime()
	w, _ := findWorkload("serve_hot")
	dir := t.TempDir()
	res, err := runTraced(w.toy(), 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced run: correct %v, failed %d", res.Correct, res.Failed)
	}
	if got, want := sortedKeys(res.Metrics), sortedNames(perLayerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run prints %v, declared %v", got, want)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	raw, err := os.ReadFile(dir + "/trace_serve_hot.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) == 0 {
		t.Errorf("span file: %v, %d spans", err, len(file.Spans))
	}
}

var quotedName = regexp.MustCompile("`([a-z0-9_.]+)`")

// TestDeclarationsMatch is the doc-drift guard: the program's metric and
// workload tables, ../BENCHMARK.json and README.md must name the same things.
func TestDeclarationsMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, workloads are sized for %d", file.RunSeconds, nominalSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	if want := declared(endToEndMetrics); !reflect.DeepEqual(file.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end\n %+v\nprogram\n %+v", file.EndToEnd, want)
	}
	if want := declared(perLayerMetrics); !reflect.DeepEqual(file.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer\n %+v\nprogram\n %+v", file.PerLayer, want)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	quoted := map[string]bool{}
	for _, m := range quotedName.FindAllStringSubmatch(string(readme), -1) {
		quoted[m[1]] = true
	}
	layers := map[string]bool{}
	known := map[string]bool{}
	for _, d := range perLayerMetrics {
		layers[strings.SplitN(d.name, ".", 2)[0]] = true
		known[d.name] = true
	}
	for _, w := range workloads {
		if !quoted[w.name] {
			t.Errorf("README.md does not name workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !quoted[d.name] {
			t.Errorf("README.md does not name metric %s", d.name)
		}
	}
	// The end-to-end table must carry each metric's unit, direction and bound.
	for _, d := range endToEndMetrics {
		row := fmt.Sprintf("| `%s` | %s | %s | %v |", d.name, d.unit, d.better, d.bound)
		if !strings.Contains(string(readme), row) {
			t.Errorf("README.md has no end-to-end row starting %q", row)
		}
	}
	// Anything the per-layer section quotes that reads like a layer metric
	// must be one (other sections also quote span and file names).
	_, section, _ := strings.Cut(string(readme), "## Per-layer metrics")
	section, _, _ = strings.Cut(section, "\n## ")
	for _, m := range quotedName.FindAllStringSubmatch(section, -1) {
		if layer, _, dotted := strings.Cut(m[1], "."); dotted && layers[layer] && !known[m[1]] {
			t.Errorf("README.md lists %s as a per-layer metric, which the program does not print", m[1])
		}
	}
}
