package main

import (
	"math"
	"sort"
)

// summary condenses one timing's samples: the median, the quartiles (by
// the same exclusive method as Python's statistics.quantiles, so in-run
// and across-run spreads are read alike) and a p90 that is only kept when
// at least ten samples lie beyond it.
type summary struct {
	N      int
	P50    float64
	Q1, Q3 float64
	P90    float64
	HasP90 bool
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 0.5)
	out.Q1, out.Q3 = quartiles(s)
	if p90 := percentile(s, 0.9); countAbove(s, p90) >= 10 {
		out.P90, out.HasP90 = p90, true
	}
	return out
}

// percentile is the linearly interpolated q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// quartiles returns the first and third quartile of sorted values with
// the exclusive method of Python's statistics.quantiles(n=4); a single
// sample is its own quartiles.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func countAbove(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
