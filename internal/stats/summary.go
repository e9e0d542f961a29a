package stats

import (
	"fmt"
	"math"
)

// Summary is a mean ± 95% confidence interval over repeated trials, the
// form in which every experimental result in the paper is reported ("the
// mean and 95% confidence interval are reported", §V-A).
type Summary struct {
	N      int     `json:"n"`       // number of observations
	Mean   float64 `json:"mean"`    // sample mean
	StdDev float64 `json:"std_dev"` // sample standard deviation (n−1 denominator)
	CI95   float64 `json:"ci95"`    // half-width of the 95% confidence interval
}

// Summarize computes a Summary over the observations. With fewer than two
// observations the CI half-width is zero.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	ci := tCritical95(n-1) * sd / math.Sqrt(float64(n))
	return Summary{N: n, Mean: mean, StdDev: sd, CI95: ci}
}

// String renders "mean ± ci" with two decimals.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f", s.Mean, s.CI95)
}

// tTable holds two-sided 95% critical values of the Student t distribution
// for small degrees of freedom; beyond the table we interpolate toward the
// normal limit 1.960.
var tTable = map[int]float64{
	1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
	6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
	11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
	16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
	21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
	26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
	40: 2.021, 60: 2.000, 120: 1.980,
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom.
func tCritical95(df int) float64 {
	if df <= 0 {
		return 0
	}
	if v, ok := tTable[df]; ok {
		return v
	}
	if df > 120 {
		return 1.960
	}
	// Linear interpolation between the nearest tabulated dfs.
	lo, hi := 30, 40
	switch {
	case df < 40:
		lo, hi = 30, 40
	case df < 60:
		lo, hi = 40, 60
	default:
		lo, hi = 60, 120
	}
	fl, fh := tTable[lo], tTable[hi]
	frac := float64(df-lo) / float64(hi-lo)
	return fl + frac*(fh-fl)
}
