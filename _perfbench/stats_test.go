package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1}, {51, 6},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample must be NaN")
	}
}

func TestSummarizeCountsAndSupportedPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: summarize must sort a copy
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 {
		t.Errorf("summary = %+v, want n=1000 p50=500 p99=990", s)
	}
	if s.MaxPct != 99 { // ten samples beyond p99 of 1000
		t.Errorf("highest supported percentile = %v, want 99", s.MaxPct)
	}
	if xs[0] != 1000 {
		t.Error("summarize modified its input")
	}
	if small := summarize([]float64{1, 2, 3}); small.MaxPct != 0 || small.N != 3 {
		t.Errorf("3 samples support no tail percentile: %+v", small)
	}
	if s := summarize(make([]float64, 180)); math.Abs(s.MaxPct-94.444) > 0.001 {
		t.Errorf("180 samples support p%v, want p94.444", s.MaxPct)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", g)
	}
	if g := geomean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(2, 2, 2) = %v", g)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {3, -1}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) must be NaN", bad)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %v", m)
	}
	if xs[0] != 3 {
		t.Error("median modified its input")
	}
	if l := lowest(xs); l != 1 {
		t.Errorf("lowest = %v", l)
	}
	if !math.IsNaN(lowest(nil)) {
		t.Error("lowest of nothing must be NaN")
	}
}

func TestSlicer(t *testing.T) {
	w := newSlicer(2500 * time.Millisecond) // two whole 1 s slices; the last half second is left out
	for i := 0; i < 25; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		w.add(at, float64(i))
	}
	if len(w.buckets) != 2 || len(w.buckets[0]) != 10 || len(w.buckets[1]) != 10 {
		t.Fatalf("buckets %d: %v", len(w.buckets), w.buckets)
	}
	qps := w.each(func(xs []float64) float64 { return float64(len(xs)) / w.length.Seconds() })
	if !slices.Equal(qps, []float64{10, 10}) {
		t.Errorf("qps per slice = %v, want [10 10]", qps)
	}
	p50 := w.each(func(xs []float64) float64 { return summarize(xs).P50 })
	if !slices.Equal(p50, []float64{4, 14}) {
		t.Errorf("p50 per slice = %v, want [4 14]", p50)
	}
	if short := newSlicer(time.Second / 2); short.length != time.Second/2 || len(short.buckets) != 1 {
		t.Errorf("a 0.5 s window is one 0.5 s slice, got %v x %d", short.length, len(short.buckets))
	}
}
