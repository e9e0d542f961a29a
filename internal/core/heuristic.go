package core

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// Default tuning of the proactive dropping heuristic, as established
// experimentally in §V-C (effective depth) and §V-D (robustness
// improvement factor) of the paper.
const (
	DefaultEta  = 2
	DefaultBeta = 1.0
)

// Heuristic is the paper's autonomous proactive task-dropping heuristic
// (§IV-E, Fig. 4). It walks each machine queue head to tail once; for every
// droppable task i it compares the instantaneous robustness of the next Eta
// tasks (the "effective depth" of i's influence zone) with task i
// provisionally dropped against the robustness of the window including i
// when kept, and confirms the drop iff Eq. 8 holds:
//
//	Σ_{n=i+1..i+η} p⁽ⁱ⁾_n  >  β · Σ_{n=i..i+η} p_n
//
// Beta ≥ 1 is the robustness improvement factor: β→1 drops on any
// improvement, β→∞ disables proactive dropping.
type Heuristic struct {
	Beta float64 // robustness improvement factor (β), ≥ 1
	Eta  int     // effective depth (η), ≥ 1
}

// NewHeuristic returns the heuristic with the paper's tuned parameters
// (η=2, β=1).
func NewHeuristic() Heuristic { return Heuristic{Beta: DefaultBeta, Eta: DefaultEta} }

// Name implements Policy.
func (h Heuristic) Name() string { return "Heuristic" }

// StableDecision implements StableDecider: the walk reads only the
// availability root, the queue's types and deadlines, and β/η.
func (h Heuristic) StableDecision() bool { return true }

// Decide implements Policy.
func (h Heuristic) Decide(ctx *Context) []int {
	if !(h.Beta >= 1) || h.Eta < 1 { // written so that a NaN β fails
		panic(fmt.Sprintf("core: invalid heuristic parameters β=%v η=%d", h.Beta, h.Eta))
	}
	return heuristicWalk(ctx, h.Beta, h.Eta, chanceOfSuccess, strictDeadline)
}

// valueFunc scores one task's completion PMF; the heuristic maximizes the
// window sum of this value. The paper's heuristic uses the chance of
// success (Eq. 2); the approximate-computing extension uses expected
// utility. Contract: the score is at most the PMF's total mass, i.e. ≤ 1 —
// heuristicWalk and Optimal bound unevaluated scenarios by it.
type valueFunc func(cp pmf.PMF, qt QueueTask) float64

// valueSlack pads the "no task is worth more than 1" bound for the few
// ulps by which float summation may leave a chain PMF's mass above 1
// (largest excess seen over `hcexp -fig all`: 7.1e-15). It rests on
// pmf.TestChainMassNeverExceedsOne, which holds every kernel path,
// conditioned root and compaction to TotalMass ≤ 1 + 1e-12.
const valueSlack = 1e-9

// chanceOfSuccess is Eq. 2 as a valueFunc.
func chanceOfSuccess(cp pmf.PMF, qt QueueTask) float64 {
	return cp.MassBefore(qt.Deadline)
}

// deadlineFunc yields the Eq. 1 truncation point for a queued task: the
// latest start time after which executing it has no value. The paper's
// model truncates at the task deadline; the approximate-computing
// extension pushes it out by the grace window.
type deadlineFunc func(qt QueueTask) pmf.Tick

// strictDeadline is the paper's truncation rule.
func strictDeadline(qt QueueTask) pmf.Tick { return qt.Deadline }

// heuristicWalk is the single head-to-tail pass of Fig. 4 parameterized by
// the per-task value function and truncation rule. Chains run through the
// calculus' shared-prefix cache, so the keep/drop scenario windows of
// consecutive candidates — which overlap heavily — convolve each distinct
// prefix only once, and the walk's working slices live in calculus-owned
// scratch: a steady-state decision allocates nothing until it drops.
func heuristicWalk(ctx *Context, beta float64, eta int, value valueFunc, dlOf deadlineFunc) []int {
	q := ctx.Queue
	first, _ := droppableBounds(q)
	if len(q)-first < 2 {
		// Zero or one pending task: nothing droppable (a sole pending task
		// is the last task, whose influence zone is empty).
		return nil
	}
	calc := ctx.Calc
	start, _ := ctx.ChainStart()

	// work holds the not-yet-decided pending suffix of the queue; orig maps
	// its entries back to original queue indexes.
	work := append(calc.scratchQ[:0], q[first:]...)
	orig := calc.scratchI[:0]
	for i := range work {
		orig = append(orig, first+i)
	}
	calc.scratchQ, calc.scratchI = work, orig

	// chainValue evaluates the first n tasks of the given slice starting
	// from s, returning the summed value and the chain state after the
	// first appended task.
	chainValue := func(s ChainState, tasks []QueueTask, n int) (float64, ChainState) {
		sum := 0.0
		head := s
		for k := 0; k < n && k < len(tasks); k++ {
			s = s.Append(tasks[k].Type, dlOf(tasks[k]))
			if k == 0 {
				head = s
			}
			sum += value(s.PMF(), tasks[k])
		}
		return sum, head
	}

	var drops []int
	prev := start
	i := 0
	for i < len(work)-1 { // the final task is never a candidate
		window := eta
		if rest := len(work) - 1 - i; rest < window {
			window = rest
		}
		// Keep scenario: tasks i..i+window; drop scenario: i+1..i+window.
		vKeep, head := chainValue(prev, work[i:], window+1)
		// The drop scenario scores `window` tasks, each at most 1, so when
		// the kept side already reaches that ceiling Eq. 8 cannot hold and
		// its chains are never convolved. (β=+Inf over vKeep=0 is NaN and
		// falls through to the full comparison, which it also fails.)
		if beta*vKeep >= float64(window)+valueSlack {
			calc.winBounded.Store(calc.winBounded.Load() + 1)
			prev = head
			i++
			continue
		}
		calc.winEval.Store(calc.winEval.Load() + 1)
		vDrop, _ := chainValue(prev, work[i+1:], window)

		if vDrop > beta*vKeep {
			drops = append(drops, orig[i])
			work = append(work[:i], work[i+1:]...)
			orig = append(orig[:i], orig[i+1:]...)
			// prev unchanged: the chain still starts after task i−1.
			continue
		}
		// Advance: the chain state of kept task i heads the next window.
		prev = head
		i++
	}
	return drops
}
