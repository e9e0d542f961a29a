package main

import (
	"math"
	"sort"
)

// Estimators. Every timing the benchmark reports is the median of
// per-round values, and every within-round latency is an interpolated
// percentile of that round's requests — see README.md, "Why rounds and
// medians".

// percentile reads the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the bracketing order statistics (Hyndman & Fan
// type 7, the definition service.Replay reports with). xs need not be
// sorted and is not modified; an empty sample reads 0.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n == 1 || q <= 0:
		return s[0]
	case q >= 1:
		return s[n-1]
	}
	r := q * float64(n-1)
	i := int(r)
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

// median is the round estimator: the middle per-round value, the mean of
// the middle two for an even count.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method: positions k·(n+1)/4, clamped to the sample), which
// is the rule the acceptance check for this benchmark is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := percentileSorted(s, 0.5)
		return v, v, v
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// iqrShare is the quartile distance as a share of the median — the
// spread figure every bound in BENCHMARK.json is judged against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// worsening is how far got is worse than base as a share of base, signed:
// positive means worse in the metric's own direction.
func worsening(base, got float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (got - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}
