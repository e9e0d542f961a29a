package pmf

import "math"

// Moments is the total mass and first moment (Σ T·P) of a PMF. Execution
// PMFs are matrix constants, so callers of NextCompletionMeanLowerBound
// compute each cell's moments once (see PMF.Moments) and the bound never
// walks exec.
type Moments struct {
	Mass  float64
	First float64
}

// Moments sums p's mass and first moment.
func (p PMF) Moments() Moments {
	var m Moments
	for _, im := range p.imp {
		m.Mass += im.P
		m.First += float64(im.T) * im.P
	}
	return m
}

// meanBoundMinMass is the least result mass for which the bound is offered:
// the massEps drops of the kernels move the normalized mean by at most
// (dropped mass)·span/(result mass), which stays far below the margin only
// while the denominator is not itself negligible.
const meanBoundMinMass = 0.5

// NextCompletionMeanLowerBound returns a value that is at most
// NextCompletionCompact(prev, exec, dl, maxN).Mean() for every budget maxN
// (and at most NextCompletion(prev, exec, dl).Mean()), without convolving:
// one pass over prev. em must be exec.Moments(). When no bound can be
// given it returns -Inf, which prunes nothing.
//
// Eq. 1 sends every predecessor impulse (T, a) before dl to the copies
// (T + t, a·b) of exec and carries the others through, so with k executing
// impulses the un-compacted result has
//
//	first moment  Σ_{i<k} a_i·(T_i·S + W) + Σ_{i≥k} a_i·T_i
//	mass          S·Σ_{i<k} a_i + Σ_{i≥k} a_i
//
// for S, W = em.Mass, em.First. What the kernels do on top of that can only
// lower the mean by less than one tick: compaction replaces each window by
// one impulse of the same mass at Tick(centroid + 0.5) ≥ centroid − 0.5
// and folding equal ticks preserves mass; cells at or below massEps are
// dropped, at most one per tick of the output span, which at a result mass
// of at least meanBoundMinMass and a span within maxDenseSpan shifts the
// mean by under 0.04 ticks. Outside those two conditions (and for a zero
// operand, whose result is not an Eq. 1 mixture) there is no bound.
func NextCompletionMeanLowerBound(prev, exec PMF, em Moments, dl Tick) float64 {
	if prev.IsZero() || exec.IsZero() {
		return math.Inf(-1)
	}
	// Every output tick lies in prev's support widened by exec's.
	if prev.Max()-prev.Min()+max(exec.Max(), 0)-min(exec.Min(), 0) >= maxDenseSpan {
		return math.Inf(-1)
	}
	k := searchImpulses(prev.imp, dl)
	run, carry := PMF{imp: prev.imp[:k]}.Moments(), PMF{imp: prev.imp[k:]}.Moments()
	mass := em.Mass*run.Mass + carry.Mass
	if mass < meanBoundMinMass {
		return math.Inf(-1)
	}
	return (em.Mass*run.First+em.First*run.Mass+carry.First)/mass - 1
}
