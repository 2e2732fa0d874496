package report

import (
	"strings"
	"testing"
	"time"
)

func TestSummarizeClassifiesCodes(t *testing.T) {
	recs := []QueryRecord{
		{Micros: 100, Code: "OK", Kernel: "BFS"},
		{Micros: 200, Code: "OK", Kernel: "PR"},
		{Micros: 5, Code: "RESOURCE_EXHAUSTED", Kernel: "BFS"},
		{Micros: 5, Code: "UNAVAILABLE", Kernel: "CC"},
		{Micros: 50000, Code: "DEADLINE_EXCEEDED", Kernel: "SSSP"},
		{Micros: 300, Code: "INTERNAL", Kernel: "BFS"},
	}
	s := Summarize(recs, 2*time.Second)
	if s.Count != 6 || s.OK != 2 || s.Shed != 2 || s.Failed != 2 {
		t.Fatalf("counts = %+v", s)
	}
	if s.QPS != 1.0 {
		t.Errorf("QPS = %v, want 1.0 (2 ok / 2s)", s.QPS)
	}
	if s.OfferedQPS != 3.0 {
		t.Errorf("OfferedQPS = %v, want 3.0", s.OfferedQPS)
	}
	if got := s.ShedRate; got < 0.33 || got > 0.34 {
		t.Errorf("ShedRate = %v, want 2/6", got)
	}
	// Quantiles cover OK responses only: the 50ms deadline-exceeded record
	// must not inflate the tail.
	if s.MaxMicros != 200 || s.P50Micros != 100 {
		t.Errorf("latencies = p50 %d max %d, want 100/200", s.P50Micros, s.MaxMicros)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.50, 500}, {0.90, 900}, {0.99, 990}, {0.999, 999}, {1.0, 1000},
	} {
		if got := quantileMicros(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantileMicros([]int64{42}, 0.999); got != 42 {
		t.Errorf("single-sample quantile = %d, want 42", got)
	}
	if got := quantileMicros(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

func TestSummaryRendering(t *testing.T) {
	recs := []QueryRecord{
		{Micros: 100, Code: "OK", Kernel: "BFS"},
		{Micros: 10, Code: "RESOURCE_EXHAUSTED", Kernel: "BFS"},
		{Micros: 220, Code: "OK", Kernel: "PR"},
		{Micros: 30, Code: "OK", Kernel: "PR", Cached: true},
	}
	s := Summarize(recs, time.Second)
	out := s.String()
	for _, want := range []string{"queries 4", "ok 3", "shed 1", "failed 0)", "cached 1", "qps"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
	table := LatencyByKernel(recs, time.Second)
	for _, want := range []string{"BFS", "PR", "p99us"} {
		if !strings.Contains(table, want) {
			t.Errorf("kernel table %q missing %q", table, want)
		}
	}
}

func TestBenchLineShape(t *testing.T) {
	recs := []QueryRecord{{Micros: 1000, Code: "OK"}, {Micros: 3000, Code: "OK"}}
	line := Summarize(recs, time.Second).BenchLine("Serve/all/c4")
	// Must parse as a go-bench line: name, iterations, ns/op, extras.
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[0] != "BenchmarkServe/all/c4" || fields[1] != "1" || fields[3] != "ns/op" {
		t.Fatalf("bench line %q is not go-bench shaped", line)
	}
	for _, want := range []string{"qps", "p99us", "shedrate"} {
		if !strings.Contains(line, want) {
			t.Errorf("bench line %q missing %q", line, want)
		}
	}
}
