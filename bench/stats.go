package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank rule on a sorted copy; 0 for an empty sample.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)]
}

// rankOf is the zero-based nearest-rank index of percentile p among n
// sorted samples.
func rankOf(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailLadder is the set of tail percentiles a report may name, highest
// first; a timing is reported at the highest one the sample supports.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest percentile of tailLadder that has at
// least ten samples beyond it among n samples, and false when even the
// lowest does not (the median is then all the sample supports).
func supportedTail(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-1-rankOf(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// spread is the self-check summary of one metric over repeated sets.
type spread struct {
	Min, Median, Max float64
}

func spreadOf(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return spread{Min: s[0], Median: median(s), Max: s[len(s)-1]}
}

// pass reports whether the repeated values agree: exactly for a count
// metric, else max-min within bound as a share of the median.
func (s spread) pass(bound float64, exact bool) bool {
	if exact {
		return s.Min == s.Max
	}
	if s.Median == 0 {
		return s.Max == s.Min
	}
	return (s.Max-s.Min)/math.Abs(s.Median) <= bound
}

func (s spread) String() string {
	return fmt.Sprintf("min %.6g  median %.6g  max %.6g", s.Min, s.Median, s.Max)
}
