package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of per-operation latencies.
type samples []time.Duration

// sorted returns a sorted copy.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples: the smallest sample with at least p% of the set at or
// below it. It returns 0 for an empty set.
func percentile(sorted samples, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile picks the tail percentile reported for n samples: p95
// when at least ten samples lie beyond it, the median otherwise (a handful
// of samples supports no tail figure). A fixed p95 stays clear of the
// cold/warm boundary of the plan_service mix, where about one answer in ten
// is cold.
func tailPercentile(n int) float64 {
	if n-int(math.Ceil(0.95*float64(n))) >= 10 {
		return 95
	}
	return 50
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// throughputWindows is how many equal windows a timed run is cut into for
// its throughput figure.
const throughputWindows = 10

// windowedThroughput returns the median over equal windows of [0, wall] of
// the operations completed per second in each window, given each
// operation's completion time since the start. A median of windows, unlike
// a count over the whole run, is not moved by a few seconds in which the
// host ran slow.
func windowedThroughput(done []time.Duration, wall time.Duration) float64 {
	counts := make([]float64, throughputWindows)
	width := wall / throughputWindows
	if width <= 0 {
		return 0
	}
	for _, d := range done {
		counts[min(int(d/width), throughputWindows-1)]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// saltedSeed derives the seed of a workload's j-th extra corpus (j >= 1).
// It never returns 0, which would give the unsalted canonical corpus.
func saltedSeed(seed, j int64) int64 {
	if s := seed*1_000_003 + j; s != 0 {
		return s
	}
	return -1
}
