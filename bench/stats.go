package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the value is decided by a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of
// sorted, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, want at least %d", p*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// windowedPercentile cuts [0, span) into `windows` equal stretches,
// takes the p-th percentile of the values whose time falls in each, and
// returns the median of those percentiles. One long stall lands in one
// stretch and cannot set the result, which a percentile over the whole
// span lets it do; what is reported is the tail of a typical stretch.
// times and values are parallel; every stretch must hold enough samples
// for percentile to report.
func windowedPercentile(times, values []float64, span float64, windows int, p float64) (float64, error) {
	per := make([][]float64, windows)
	for i, t := range times {
		w := int(t / span * float64(windows))
		w = max(0, min(w, windows-1))
		per[w] = append(per[w], values[i])
	}
	tails := make([]float64, windows)
	for w, xs := range per {
		v, err := percentile(sortedCopy(xs), p)
		if err != nil {
			return 0, fmt.Errorf("stretch %d of %d: %w", w+1, windows, err)
		}
		tails[w] = v
	}
	return median(tails), nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance rule for this benchmark is written against. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		ld := len(s)
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
