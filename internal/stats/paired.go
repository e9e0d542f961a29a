package stats

import "fmt"

// PairedDiff summarizes the element-wise differences x[i] − y[i] as a
// mean ± 95% CI. This is the paired-difference analysis: when the two
// series come from trials run on identical traces (the comparison
// discipline of the paper's §V), the trial-to-trial workload noise is
// common to both series and cancels in the differences, so the CI on the
// mean difference is typically much tighter than the CI either series
// carries on its own mean.
func PairedDiff(x, y []float64) (Summary, error) {
	if len(x) != len(y) {
		return Summary{}, fmt.Errorf("stats: paired series of unequal length (%d vs %d)", len(x), len(y))
	}
	d := make([]float64, len(x))
	for i := range x {
		d[i] = x[i] - y[i]
	}
	return Summarize(d), nil
}
