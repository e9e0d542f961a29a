package core

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// This file implements the approximate-computing extension the paper names
// as future work (§VI): "we plan to extend the probabilistic analysis to
// consider approximately computing tasks, in addition to task dropping."
//
// In approximate computing, a task that finishes shortly after its
// deadline still delivers partial value (a video segment transcoded a
// little late can still be spliced in at reduced quality). We model value
// as a linear ramp: completing strictly before the deadline is worth 1,
// completing at deadline+grace or later is worth 0, and completions inside
// the grace window interpolate linearly.

// ExpectedUtility returns the expected value of a completion-time PMF
// against a deadline with a linear grace window:
//
//	U = P(C < δ) + Σ_{δ ≤ t < δ+g} c(t) · (1 − (t−δ)/g)
//
// With g = 0 it degenerates to the chance of success (Eq. 2).
func ExpectedUtility(cp pmf.PMF, deadline pmf.Tick, grace pmf.Tick) float64 {
	if grace <= 0 {
		return cp.MassBefore(deadline)
	}
	u := 0.0
	g := float64(grace)
	for _, im := range cp.Impulses() {
		switch {
		case im.T < deadline:
			u += im.P
		case im.T < deadline+grace:
			u += im.P * (1 - float64(im.T-deadline)/g)
		}
	}
	return u
}

// FollowEngineGrace, as ApproxHeuristic.Grace, makes the policy adopt the
// engine's reactive grace window (Context.Grace) at every decision — so
// policy and engine always assume the same leeway without the caller
// keeping two knobs in sync. It is the default of the "approx" spec when
// no explicit grace parameter is given.
const FollowEngineGrace pmf.Tick = -1

// ApproxHeuristic is the proactive dropping heuristic driven by expected
// utility instead of the chance of success: with a non-zero grace window a
// slightly-late task retains value, so the policy drops less aggressively
// than the strict-deadline heuristic. Consistently, its completion-time
// chains truncate Eq. 1 at deadline+Grace — a task is only "reactively
// dropped" in the forecast once it can no longer earn any value. With
// Grace = 0 its decisions are identical to Heuristic.
//
// Grace = FollowEngineGrace (the spec default) tracks the engine's
// sim.Config.ReactiveGrace automatically; an explicit Grace ≥ 0 overrides
// it, in which case pair it with the engine's grace yourself.
type ApproxHeuristic struct {
	Beta  float64  // robustness improvement factor (β), ≥ 1
	Eta   int      // effective depth (η), ≥ 1
	Grace pmf.Tick // linear value decay window after the deadline
}

// NewApproxHeuristic returns the utility-driven heuristic with the tuned
// η=2, β=1 and the given grace window.
func NewApproxHeuristic(grace pmf.Tick) ApproxHeuristic {
	return ApproxHeuristic{Beta: DefaultBeta, Eta: DefaultEta, Grace: grace}
}

// Name implements Policy.
func (ApproxHeuristic) Name() string { return "ApproxHeuristic" }

// StableDecision implements StableDecider: Context.Grace is an engine
// constant, so the walk's inputs reduce to the availability root, the
// queue's types and deadlines, and β/η/grace.
func (ApproxHeuristic) StableDecision() bool { return true }

// Decide implements Policy.
func (a ApproxHeuristic) Decide(ctx *Context) []int {
	grace := a.Grace
	if grace == FollowEngineGrace {
		grace = ctx.Grace
	}
	if !(a.Beta >= 1) || a.Eta < 1 || grace < 0 {
		panic(fmt.Sprintf("core: invalid approx heuristic parameters β=%v η=%d g=%d", a.Beta, a.Eta, grace))
	}
	value := func(cp pmf.PMF, qt QueueTask) float64 {
		return ExpectedUtility(cp, qt.Deadline, grace)
	}
	graced := func(qt QueueTask) pmf.Tick { return qt.Deadline + grace }
	return heuristicWalk(ctx, a.Beta, a.Eta, value, graced)
}
