package core

// Threshold is the prior-work baseline ("+Threshold" in Fig. 8, after
// Gentry et al., IPDPS'19): a pending task is pruned when its chance of
// success falls below a predetermined threshold. The published mechanism
// adjusts the user-chosen threshold at each mapping event according to
// system load; we reproduce that with a batch-pressure multiplier bounded
// to [0.5, 2] — under heavy oversubscription the effective threshold rises
// (more aggressive pruning), under light load it falls.
//
// This is exactly the kind of fine-grained, user-supplied parameter the
// paper's autonomous mechanism exists to remove.
type Threshold struct {
	// Base is the predetermined chance-of-success threshold θ (the spec's
	// default is DefaultThresholdBase).
	Base float64
	// Adaptive enables the per-event load adjustment.
	Adaptive bool
}

// DefaultThresholdBase is the predetermined threshold used by the baseline
// when the user provides none.
const DefaultThresholdBase = 0.25

// Name implements Policy.
func (Threshold) Name() string { return "Threshold" }

// Decide implements Policy. It walks the queue head to tail; each pending
// task whose chance of success under the current (post-drop) chain falls
// below the effective threshold is dropped, which immediately improves the
// odds of the tasks behind it. Its chains run to the engine's horizon
// (Context.Append): a kept task the engine would start late still delays
// the tasks behind it.
func (t Threshold) Decide(ctx *Context) []int {
	theta := t.Base
	if t.Adaptive {
		f := ctx.BatchPressure
		if f < 0.5 {
			f = 0.5
		} else if f > 2 {
			f = 2
		}
		theta *= f
	}
	if theta <= 0 {
		return nil
	}
	q := ctx.Queue
	first, _ := droppableBounds(q)
	if len(q)-first < 1 {
		return nil
	}
	prev, _ := ctx.ChainStart()

	var drops []int
	// Unlike the paper's heuristic, the threshold baseline may prune any
	// pending task including the last: its criterion is the task's own
	// chance of success, not its influence zone.
	for i := first; i < len(q); i++ {
		next := ctx.Append(prev, q[i])
		if next.PMF().MassBefore(q[i].Deadline) < theta {
			drops = append(drops, i)
			// prev unchanged: the chain skips the dropped task.
			continue
		}
		prev = next
	}
	return drops
}
