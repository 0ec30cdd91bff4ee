package main

import (
	"math"
	"sort"
)

// Sample statistics shared by the workloads, the report and -compare. Every
// function takes its samples unsorted and leaves them untouched.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the rule of
// Python's statistics.quantiles(xs, n=4) (method "exclusive"), so spreads
// computed here match the ones an outside checker computes from the same
// values. One sample is its own quartiles; none gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// relIQR is the distance between the quartiles of xs as a share of their
// median: the run-to-run spread a regression bound is compared against.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// geomean returns the geometric mean of xs, or NaN when xs is empty or holds
// a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailAt returns the nearest-rank p-th percentile of xs. A tail is only
// reported with at least ten samples beyond it; ok is false otherwise.
func tailAt(xs []float64, p float64) (value float64, ok bool) {
	s := sorted(xs)
	rank := nearestRank(p, len(s))
	if rank < 1 || len(s)-rank < 10 {
		return math.NaN(), false
	}
	return s[rank-1], true
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// tolerance keeps 99.9% of 10000 at rank 9990 despite rounding in p·n.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}
