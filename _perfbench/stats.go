package main

import (
	"fmt"
	"math"
	"slices"
)

// summary is a timing sample reduced the way every timing in this benchmark
// is reported: a median, a p95 and a p99, the sample count, and the highest
// percentile the sample supports (the one with at least ten samples beyond
// it) with its value.
type summary struct {
	N             int
	P50, P95, P99 float64
	// MaxPct is the highest percentile with at least minTail samples above
	// it, and Max its value; both 0 when the sample is too small to support
	// any tail percentile.
	MaxPct, Max float64
}

// minTail is how many samples must lie beyond a percentile before it is
// trusted.
const minTail = 10

// summarize reduces xs (left unmodified).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s.P50 = percentile(sorted, 50)
	s.P95 = percentile(sorted, 95)
	s.P99 = percentile(sorted, 99)
	if len(xs) > minTail {
		s.MaxPct = 100 * float64(len(xs)-minTail) / float64(len(xs))
		s.Max = sorted[len(xs)-minTail-1]
	}
	return s
}

// percentile is the nearest-rank percentile p (0 < p ≤ 100) of an ascending
// sample: the smallest value with at least p% of the sample at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the 50th nearest-rank percentile of xs (left unmodified).
func median(xs []float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return percentile(sorted, 50)
}

// lowest is the smallest of xs; NaN for an empty sample.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// geomean is the geometric mean of positive values; NaN for an empty sample
// or a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d, p50 %.4g ms, p95 %.4g ms, p99 %.4g ms, highest supported percentile p%.2f = %.4g ms",
		s.N, s.P50, s.P95, s.P99, s.MaxPct, s.Max)
}
