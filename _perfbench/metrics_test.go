package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMetricsMatchBenchmarkJSON: the names and units this command prints
// are the ones BENCHMARK.json declares, and so are the workloads.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	pairs := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name+" "+d.Unit)
		}
		return out
	}
	var e2e, layers []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bench.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	if got := pairs(endToEnd); !slices.Equal(got, e2e) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, e2e)
	}
	if got := pairs(perLayer()); !slices.Equal(got, layers) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, layers)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if w.Name == serveOpen.name && !strings.Contains(w.Why, fmt.Sprintf("%d/s", openRate)) {
			t.Errorf("serve-open's why must state its fixed rate %d/s: %q", openRate, w.Why)
		}
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	slices.Sort(have)
	slices.Sort(names)
	if !slices.Equal(have, names) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", have, names)
	}
}
