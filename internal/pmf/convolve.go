package pmf

import "sort"

// NextCompletion implements Eq. 1 of the paper: given the completion-time
// PMF of the predecessor task (the receiver, c_{i-1}) and the execution-time
// PMF of the pending task (exec, e_i) with hard deadline dl (δ_i), it
// returns the completion-time PMF of the pending task, c_i.
//
// Semantics: if the predecessor completes at tick k < dl, the task starts
// and completes at k + e (e drawn from exec). If the predecessor completes
// at k ≥ dl, the task is reactively dropped — its execution contributes
// zero time, and the predecessor's completion mass carries through
// unchanged. Total mass is preserved (assuming exec has mass 1).
func (p PMF) NextCompletion(exec PMF, dl Tick) PMF {
	if p.IsZero() {
		return Zero()
	}
	acc := newAccumulator(len(p.imp) * (exec.Len() + 1))
	for _, a := range p.imp {
		if a.T < dl {
			for _, b := range exec.imp {
				acc.add(a.T+b.T, a.P*b.P)
			}
		} else {
			acc.add(a.T, a.P)
		}
	}
	return acc.finish()
}

// accumulator gathers (time, mass) contributions and merges them into a
// sorted PMF. It collects into a slice and sort-merges once at the end,
// which profiles faster than a map for the impulse counts seen here. The
// sort is stable, so equal-time contributions sum in the order they were
// added — the nested-loop order every Workspace path also sums in, which
// is what makes the arena kernels bit-identical to these methods.
type accumulator struct {
	buf []Impulse
}

func newAccumulator(capHint int) *accumulator {
	return &accumulator{buf: make([]Impulse, 0, capHint)}
}

func (a *accumulator) add(t Tick, p float64) {
	if p > 0 {
		a.buf = append(a.buf, Impulse{T: t, P: p})
	}
}

func (a *accumulator) finish() PMF {
	if len(a.buf) == 0 {
		return Zero()
	}
	sort.SliceStable(a.buf, func(i, j int) bool { return a.buf[i].T < a.buf[j].T })
	out := a.buf[:0]
	for _, im := range a.buf {
		if n := len(out); n > 0 && out[n-1].T == im.T {
			out[n-1].P += im.P
		} else {
			out = append(out, im)
		}
	}
	// Drop negligible impulses produced by repeated convolution.
	clean := out[:0]
	for _, im := range out {
		if im.P > massEps {
			clean = append(clean, im)
		}
	}
	return PMF{imp: clean}
}
