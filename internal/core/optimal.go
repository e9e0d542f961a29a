package core

import "math/bits"

// Optimal is the optimal proactive dropping policy of §IV-D: at each
// mapping event it enumerates every subset of droppable tasks (2^(q−1)
// cases for a queue of q pending tasks — the final task is excluded, its
// influence zone being empty) and drops the subset that maximizes the
// queue's instantaneous robustness (Eq. 3). Exponential in the queue bound,
// which the paper keeps small (6 slots including the running task).
//
// The enumeration walks the keep/drop decision tree depth-first so that
// shared queue prefixes are convolved once, not once per subset, and
// leaves a subtree unvisited when even a chance of success of 1 for every
// task still undecided could not bring it level with the incumbent.
//
// Ties are broken toward fewer drops (so the keep-everything baseline
// survives exact ties), then toward the first subset found in keep-first
// order.
type Optimal struct{}

// Name implements Policy.
func (Optimal) Name() string { return "Optimal" }

// StableDecision implements StableDecider: the subset enumeration reads
// only the availability root, the queue's types and deadlines and the
// engine's grace window (an engine constant).
func (Optimal) StableDecision() bool { return true }

// optimalSearch carries the shared state of one decision-tree walk.
type optimalSearch struct {
	ctx   *Context
	cands []QueueTask // droppable tasks (queue[first:last])
	tail  []QueueTask // tasks after the candidates (at least the final one)

	bestR    float64
	bestMask uint32
	bestSize int
	haveBest bool
}

// Decide implements Policy. Its chains run to the engine's horizon
// (Context.Append) and score Eq. 2 at the deadline.
func (Optimal) Decide(ctx *Context) []int {
	q := ctx.Queue
	first, last := droppableBounds(q)
	if last-first <= 0 {
		return nil
	}
	start, _ := ctx.ChainStart()
	s := &optimalSearch{
		ctx:   ctx,
		cands: q[first:last],
		tail:  q[last:],
	}
	s.walk(0, start, 0, 0)
	if !s.haveBest || s.bestMask == 0 {
		return nil
	}
	drops := make([]int, 0, s.bestSize)
	for b := range s.cands {
		if s.bestMask&(1<<b) != 0 {
			drops = append(drops, first+b)
		}
	}
	return drops
}

// walk explores keep/drop decisions for candidate i given the chain state.
// Chain states are memoized in the calculus trie, so beyond the explicit
// prefix sharing of the depth-first walk, the tail chains behind identical
// survivor sets are also convolved only once per decision.
func (s *optimalSearch) walk(i int, prev ChainState, sum float64, mask uint32) {
	// Branch and bound: the tasks still to score are worth at most 1 each.
	// A subtree whose ceiling stays below the incumbent's tie band holds no
	// leaf the comparison below would accept, so skipping it changes
	// neither the chosen mask nor the order in which ties are met.
	if s.haveBest && sum+float64(len(s.cands)-i+len(s.tail))+valueSlack < s.bestR-1e-12 {
		s.ctx.Calc.winBounded.Store(s.ctx.Calc.winBounded.Load() + 1)
		return
	}
	if i == len(s.cands) {
		s.ctx.Calc.winEval.Store(s.ctx.Calc.winEval.Load() + 1)
		for _, qt := range s.tail {
			prev = s.ctx.Append(prev, qt)
			sum += prev.PMF().MassBefore(qt.Deadline)
		}
		size := bits.OnesCount32(mask)
		if !s.haveBest || sum > s.bestR+1e-12 || (sum >= s.bestR-1e-12 && size < s.bestSize) {
			s.bestR, s.bestMask, s.bestSize, s.haveBest = sum, mask, size, true
		}
		return
	}
	qt := s.cands[i]
	// Keep candidate i.
	kept := s.ctx.Append(prev, qt)
	s.walk(i+1, kept, sum+kept.PMF().MassBefore(qt.Deadline), mask)
	// Drop candidate i: the chain passes through unchanged.
	s.walk(i+1, prev, sum, mask|1<<i)
}
