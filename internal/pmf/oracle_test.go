package pmf

import "math"

// Portable reference forms the arena kernels are held to. Production code
// runs the fused kernels (Workspace); these stay here as the oracles.

// conditionalRemaining returns the distribution of the remaining execution
// time of a task that has already been running for elapsed ticks:
// P(X − elapsed = r | X > elapsed), normalized to mass 1 — the portable
// form of Workspace.ConditionalRemainingShift before its shift. A task
// that has outlived every impulse of its model completes on the next tick,
// Delta(1).
func conditionalRemaining(p PMF, elapsed Tick) PMF {
	if elapsed <= 0 {
		return p
	}
	var tail []Impulse
	mass := 0.0
	for _, im := range p.imp {
		if im.T > elapsed {
			tail = append(tail, Impulse{T: im.T - elapsed, P: im.P})
			mass += im.P
		}
	}
	if mass <= massEps {
		return Delta(1)
	}
	inv := 1 / mass
	for i := range tail {
		tail[i].P *= inv
	}
	return PMF{imp: tail}
}

// normalize returns p rescaled to total mass 1; the empty PMF and one
// already of mass 1 come back unchanged.
func normalize(p PMF) PMF {
	m := p.TotalMass()
	if m == 0 || math.Abs(m-1) < massEps {
		return p
	}
	return p.Scale(1 / m)
}

// nextCompletionMeanLowerBound is SplitMeanLowerBound with prev's split at
// dl taken here.
func nextCompletionMeanLowerBound(prev, exec PMF, em Moments, dl Tick) float64 {
	return SplitMeanLowerBound(prev, exec, em, prev.SplitMoments(prev.Rank(dl-1)))
}

// convolve returns the distribution of X+Y for independent X ~ p and Y ~ q.
// Total mass of the result is the product of the input masses.
func convolve(p, q PMF) PMF {
	if p.IsZero() || q.IsZero() {
		return Zero()
	}
	// Fast paths for deterministic operands.
	if len(p.imp) == 1 && p.imp[0].P == 1 {
		return q.Shift(p.imp[0].T)
	}
	if len(q.imp) == 1 && q.imp[0].P == 1 {
		return p.Shift(q.imp[0].T)
	}
	acc := newAccumulator(len(p.imp) * len(q.imp))
	for _, a := range p.imp {
		for _, b := range q.imp {
			acc.add(a.T+b.T, a.P*b.P)
		}
	}
	return acc.finish()
}
