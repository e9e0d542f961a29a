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

// ApproxHeuristic is the proactive dropping heuristic driven by expected
// utility instead of the chance of success: under the engine's grace
// window (Context.Grace) a slightly-late task retains value, so the policy
// drops less aggressively than the heuristic. Its chains run to the same
// horizon as every dropper's (Context.Append). With no grace its decisions
// are identical to Heuristic.
type ApproxHeuristic struct {
	Beta float64 // robustness improvement factor (β), ≥ 1
	Eta  int     // effective depth (η), ≥ 1
}

// Name implements Policy.
func (ApproxHeuristic) Name() string { return "ApproxHeuristic" }

// StableDecision implements StableDecider: Context.Grace is an engine
// constant, so the walk's inputs reduce to the availability root, the
// queue's types and deadlines, and β/η.
func (ApproxHeuristic) StableDecision() bool { return true }

// Decide implements Policy.
func (a ApproxHeuristic) Decide(ctx *Context) []int {
	if !(a.Beta >= 1) || a.Eta < 1 {
		panic(fmt.Sprintf("core: invalid approx heuristic parameters β=%v η=%d", a.Beta, a.Eta))
	}
	return heuristicWalk(ctx, a.Beta, a.Eta, expectedUtility)
}

// expectedUtility is ExpectedUtility as a valueFunc.
func expectedUtility(cp pmf.PMF, qt QueueTask, grace pmf.Tick) float64 {
	return ExpectedUtility(cp, qt.Deadline, grace)
}
