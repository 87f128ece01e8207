package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles tailPercentile may report, highest
// first.
var tailPercentiles = []int{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported percentile's
// rank: a tail figure resting on fewer is one or two outliers.
const minBeyond = 10

// tailPercentile applies the reporting rule for latency tails: report
// the highest percentile that has at least ten samples beyond it, by
// nearest rank (rank ⌈p·n/100⌉, 1-based). At n = 200 that is p95; below
// twenty samples no tail qualifies and the median stands in (p = 50).
func tailPercentile(xs []float64) (p int, v float64) {
	if len(xs) == 0 {
		return 50, math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 50, median(s)
}

// nearestRank returns the p-th percentile of xs by nearest rank.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
