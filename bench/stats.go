package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples; 0 for an empty set. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the two middle samples averaged
// for even counts.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailCandidates are the percentiles a report may quote as its tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// highestPercentile picks the highest candidate percentile that still
// has at least ten samples beyond it; 50 when even p75 has fewer.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		// The small epsilon keeps 100 samples at p90 (exactly ten
		// beyond) from falling to float rounding.
		if float64(n)*(100-p)/100+1e-9 >= 10 {
			return p
		}
	}
	return 50
}

// ratio divides, answering 0 for an empty denominator so a metric that
// does not apply to a workload reads 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
