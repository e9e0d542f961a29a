package pmf

import "math"

// Moments is the total mass and first moment (Σ T·P) of a PMF. Execution
// PMFs are matrix constants, so callers of SplitMeanLowerBound compute
// each cell's moments once (see PMF.Moments) and the bound never
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

// Split is the moments of a PMF's impulses before a split index (Run, the
// predecessors whose successor executes) and from it on (Carry, those
// carried through).
type Split struct{ Run, Carry Moments }

// SplitMoments returns p's moments split at impulse index k, each side
// summed in ascending time order — the split SplitMeanLowerBound takes at
// k = p.Rank(dl-1). A caller that asks one PMF for many deadlines
// may memoize them per k.
func (p PMF) SplitMoments(k int) Split {
	return Split{Run: PMF{imp: p.imp[:k]}.Moments(), Carry: PMF{imp: p.imp[k:]}.Moments()}
}

// SplitMeanLowerBound returns a value that is at most
// NextCompletionCompact(prev, exec, dl, maxN).Mean() for every budget maxN
// (and at most NextCompletion(prev, exec, dl).Mean()), without convolving.
// em must be exec.Moments() and sp prev's split at dl,
// prev.SplitMoments(prev.Rank(dl-1)), or a memo of it. When no bound can
// be given it returns -Inf, which prunes nothing.
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
func SplitMeanLowerBound(prev, exec PMF, em Moments, sp Split) float64 {
	if prev.IsZero() || exec.IsZero() {
		return math.Inf(-1)
	}
	// Every output tick lies in prev's support widened by exec's.
	if prev.Max()-prev.Min()+max(exec.Max(), 0)-min(exec.Min(), 0) >= maxDenseSpan {
		return math.Inf(-1)
	}
	mass := em.Mass*sp.Run.Mass + sp.Carry.Mass
	if mass < meanBoundMinMass {
		return math.Inf(-1)
	}
	return (em.Mass*sp.Run.First+em.First*sp.Run.Mass+sp.Carry.First)/mass - 1
}
