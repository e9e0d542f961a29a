// Package pmf implements sparse probability mass functions (PMFs) over a
// discrete integer time grid, together with the completion-time calculus the
// task-dropping model is built on.
//
// A PMF is a finite set of impulses (t, p): the probability that the modeled
// random variable (an execution or completion time) equals tick t is p.
// PMFs are allowed to carry total mass below 1 ("sub-probability" PMFs);
// they arise naturally during the deadline-truncated convolution of Eq. 1 in
// the paper, where part of the mass of a completion time represents
// scenarios in which a task was reactively dropped.
//
// The zero value of PMF is the empty PMF (no impulses, zero mass).
package pmf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Tick is a point on the discrete simulation time grid. One tick is one
// millisecond throughout this repository.
type Tick int64

// Impulse is a single probability mass point: P(X == T) = P.
type Impulse struct {
	T Tick
	P float64
}

// PMF is a discrete probability mass function with impulses sorted by
// strictly increasing time. All impulse masses are positive. Total mass is
// at most 1 (up to floating-point error).
type PMF struct {
	imp []Impulse
}

// massEps is the smallest impulse mass worth tracking. Impulses below this
// threshold are discarded during construction and compaction; the discarded
// mass is negligible relative to the 1e-9 tolerances used by callers.
const massEps = 1e-12

// FromImpulses builds a PMF from the given impulses. Impulses may be
// unsorted and may contain duplicate times (masses at equal times are
// summed). Impulses with non-positive mass are dropped. The input slice is
// not retained.
func FromImpulses(imps []Impulse) PMF {
	cp := make([]Impulse, 0, len(imps))
	for _, im := range imps {
		if im.P > massEps {
			cp = append(cp, im)
		}
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	// Merge duplicates in place.
	out := cp[:0]
	for _, im := range cp {
		if n := len(out); n > 0 && out[n-1].T == im.T {
			out[n-1].P += im.P
		} else {
			out = append(out, im)
		}
	}
	return PMF{imp: out}
}

// Delta returns the deterministic PMF with all mass at t.
func Delta(t Tick) PMF {
	return PMF{imp: []Impulse{{T: t, P: 1}}}
}

// Zero returns the empty PMF (no impulses, zero total mass).
func Zero() PMF { return PMF{} }

// Len reports the number of impulses.
func (p PMF) Len() int { return len(p.imp) }

// IsZero reports whether the PMF carries no mass.
func (p PMF) IsZero() bool { return len(p.imp) == 0 }

// Impulses returns the impulses in ascending time order. The returned slice
// is shared with the PMF and must not be modified.
func (p PMF) Impulses() []Impulse { return p.imp }

// Rank returns the number of impulses with time at or before t. For an
// execution-time PMF and an elapsed running time it is the conditioning
// cut of ConditionalRemainingShift: the impulses the condition T > elapsed
// removes. The cut (not the clock) is what determines the bit pattern of a
// conditional availability, which is how the persistent chain cache knows
// a cached root is still exact.
func (p PMF) Rank(t Tick) int { return searchImpulses(p.imp, t+1) }

// At returns the mass at exactly tick t (zero if no impulse there).
func (p PMF) At(t Tick) float64 {
	i := searchImpulses(p.imp, t)
	if i < len(p.imp) && p.imp[i].T == t {
		return p.imp[i].P
	}
	return 0
}

// TotalMass returns the sum of all impulse masses.
func (p PMF) TotalMass() float64 {
	s := 0.0
	for _, im := range p.imp {
		s += im.P
	}
	return s
}

// MassBefore returns the probability mass strictly before tick t.
// This is the "chance of success" of Eq. 2 when t is a deadline.
// The boundary index is located by binary search; only the in-range
// impulses are touched.
func (p PMF) MassBefore(t Tick) float64 {
	s := 0.0
	for _, im := range p.imp[:searchImpulses(p.imp, t)] {
		s += im.P
	}
	return s
}

// Min returns the earliest impulse time. It panics on an empty PMF.
func (p PMF) Min() Tick {
	if len(p.imp) == 0 {
		panic("pmf: Min of empty PMF")
	}
	return p.imp[0].T
}

// Max returns the latest impulse time. It panics on an empty PMF.
func (p PMF) Max() Tick {
	if len(p.imp) == 0 {
		panic("pmf: Max of empty PMF")
	}
	return p.imp[len(p.imp)-1].T
}

// Mean returns the expected value E[X] normalized by the total mass, i.e.
// the conditional mean given that the event occurs. Returns 0 for an empty
// PMF.
func (p PMF) Mean() float64 {
	var sum, mass float64
	for _, im := range p.imp {
		sum += float64(im.T) * im.P
		mass += im.P
	}
	if mass == 0 {
		return 0
	}
	return sum / mass
}

// Variance returns the variance of the mass-normalized distribution.
func (p PMF) Variance() float64 {
	m := p.Mean()
	var sum, mass float64
	for _, im := range p.imp {
		d := float64(im.T) - m
		sum += d * d * im.P
		mass += im.P
	}
	if mass == 0 {
		return 0
	}
	return sum / mass
}

// StdDev returns the standard deviation of the mass-normalized distribution.
func (p PMF) StdDev() float64 { return math.Sqrt(p.Variance()) }

// Quantile returns the smallest tick t such that the normalized cumulative
// mass up to and including t is at least q, with q in (0, 1]. It panics on
// an empty PMF.
func (p PMF) Quantile(q float64) Tick {
	if len(p.imp) == 0 {
		panic("pmf: Quantile of empty PMF")
	}
	total := p.TotalMass()
	target := q * total
	cum := 0.0
	for _, im := range p.imp {
		cum += im.P
		if cum >= target-massEps {
			return im.T
		}
	}
	return p.imp[len(p.imp)-1].T
}

// Shift returns the PMF translated by dt ticks.
func (p PMF) Shift(dt Tick) PMF {
	if len(p.imp) == 0 || dt == 0 {
		return p
	}
	out := make([]Impulse, len(p.imp))
	for i, im := range p.imp {
		out[i] = Impulse{T: im.T + dt, P: im.P}
	}
	return PMF{imp: out}
}

// Scale returns the PMF with every mass multiplied by f (f ≥ 0). Scaling by
// zero yields the empty PMF.
func (p PMF) Scale(f float64) PMF {
	if f < 0 {
		panic("pmf: negative scale factor")
	}
	out := make([]Impulse, 0, len(p.imp))
	for _, im := range p.imp {
		if q := im.P * f; q > massEps {
			out = append(out, Impulse{T: im.T, P: q})
		}
	}
	return PMF{imp: out}
}

// Add returns the pointwise sum of the two PMFs' masses. The result may
// have total mass above 1; callers use Add to accumulate mixture components
// and are responsible for the final mass being a valid (sub-)probability.
func (p PMF) Add(q PMF) PMF {
	if p.IsZero() {
		return q
	}
	if q.IsZero() {
		return p
	}
	out := make([]Impulse, 0, len(p.imp)+len(q.imp))
	i, j := 0, 0
	for i < len(p.imp) && j < len(q.imp) {
		switch {
		case p.imp[i].T < q.imp[j].T:
			out = append(out, p.imp[i])
			i++
		case p.imp[i].T > q.imp[j].T:
			out = append(out, q.imp[j])
			j++
		default:
			out = append(out, Impulse{T: p.imp[i].T, P: p.imp[i].P + q.imp[j].P})
			i++
			j++
		}
	}
	out = append(out, p.imp[i:]...)
	out = append(out, q.imp[j:]...)
	return PMF{imp: out}
}

// CloneInto copies p's impulses into buf (reusing its capacity when
// sufficient) and returns both the copy and the possibly-grown buffer for
// the caller to reuse. It is the pinning operation of the calculus' memory
// contract: results that alias workspace arena memory are only valid until
// the next recycle, so a caller caching one across decisions clones it
// into storage it owns.
func (p PMF) CloneInto(buf []Impulse) (PMF, []Impulse) {
	buf = append(buf[:0], p.imp...)
	return PMF{imp: buf}, buf
}

// Equal reports exact equality of impulse lists.
func (p PMF) Equal(q PMF) bool {
	if len(p.imp) != len(q.imp) {
		return false
	}
	for i := range p.imp {
		if p.imp[i] != q.imp[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether the two PMFs have the same impulse times and
// masses within tol.
func (p PMF) ApproxEqual(q PMF, tol float64) bool {
	if len(p.imp) != len(q.imp) {
		return false
	}
	for i := range p.imp {
		if p.imp[i].T != q.imp[i].T || math.Abs(p.imp[i].P-q.imp[i].P) > tol {
			return false
		}
	}
	return true
}

// String renders the PMF compactly, e.g. "{10:0.600 11:0.400}".
func (p PMF) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, im := range p.imp {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", im.T, im.P)
	}
	b.WriteByte('}')
	return b.String()
}
