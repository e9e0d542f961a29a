package sim

import (
	"fmt"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// The engine once kept every task it was fed and derived Result, and the
// census, by walking that history. These are those walks, kept as the
// reference the tally is held to: they read a Recorder's per-task records.

// refTaskUtility scores one terminal task state.
func refTaskUtility(ts *TaskState, grace pmf.Tick) float64 {
	switch ts.Status {
	case StatusCompletedOnTime:
		return 1
	case StatusCompletedLate:
		if late := ts.Finish - ts.Task.Deadline; grace > 0 && late < grace {
			return 1 - float64(late)/float64(grace)
		}
	}
	return 0
}

// refUtilityScore is the mean utility (%) of all but the first and last
// boundaryExclusion states, summed task by task in arrival order.
func refUtilityScore(states []TaskState, grace pmf.Tick, boundaryExclusion int) float64 {
	lo, hi := boundaryExclusion, len(states)-boundaryExclusion
	if hi <= lo {
		lo, hi = 0, len(states)
	}
	if hi == lo {
		return 0
	}
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += refTaskUtility(&states[i], grace)
	}
	return 100 * sum / float64(hi-lo)
}

// refResult recomputes a drained engine's Result from per-task records by
// the pre-tally definition: one walk over every task in arrival order,
// testing each ordinal against the measured window. Too few tasks to have
// both edges (hi < lo) measures everything.
func refResult(e *Engine, states []TaskState) *Result {
	r := &Result{Total: len(states), Makespan: e.clock}
	lo, hi := e.cfg.BoundaryExclusion, len(states)-e.cfg.BoundaryExclusion
	if hi < lo {
		lo, hi = 0, len(states)
	}
	for i := range states {
		var whole, window Outcomes
		whole.add(states[i].Status, 1)
		if whole.total() != 1 {
			panic(fmt.Sprintf("task %d drained in non-terminal status %v", i, states[i].Status))
		}
		if i >= lo && i < hi {
			r.Measured++
			window = whole
		}
		r.OnTime += whole.OnTime
		r.Late += whole.Late
		r.DroppedReactive += whole.DroppedReactive
		r.DroppedProactive += whole.DroppedProactive
		r.Failed += whole.Failed
		r.MOnTime += window.OnTime
		r.MLate += window.Late
		r.MDroppedReactive += window.DroppedReactive
		r.MDroppedProactive += window.DroppedProactive
		r.MFailed += window.Failed
	}
	if r.Measured > 0 {
		r.RobustnessPct = 100 * float64(r.MOnTime) / float64(r.Measured)
		r.UtilityPct = refUtilityScore(states, e.cfg.ReactiveGrace, e.cfg.BoundaryExclusion)
	}
	for _, m := range e.machines {
		r.BusyTicks += m.busy
		r.TotalCostUSD += float64(m.busy) / 3.6e6 * m.Spec.PriceHour
	}
	if r.RobustnessPct > 0 {
		r.CostPerRobustness = r.TotalCostUSD / r.RobustnessPct
	}
	if e.clock > 0 && len(e.machines) > 0 {
		r.UtilizationPct = 100 * float64(r.BusyTicks) / (float64(e.clock) * float64(len(e.machines)))
	}
	return r
}

// requireRefResult fails unless the engine's Result equals the one
// recomputed from the records: every count and machine figure exactly,
// UtilityPct to the rounding of one float sum against another.
func requireRefResult(t *testing.T, label string, e *Engine, got *Result, states []TaskState) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := refResult(e, states)
	if d := got.UtilityPct - want.UtilityPct; d > 1e-9 || d < -1e-9 {
		t.Fatalf("%s: UtilityPct %v from the tally, %v recounted", label, got.UtilityPct, want.UtilityPct)
	}
	g := *got
	g.UtilityPct = want.UtilityPct
	if g != *want {
		t.Fatalf("%s: Result from the tally differs from the recount:\n got %+v\nwant %+v", label, got, want)
	}
}

// recount recomputes the census from scratch: the tasks the engine holds,
// by where it holds them, plus the recorder's settled ones.
func recount(e *Engine, rec *Recorder) Live {
	var lc Live
	for _, ts := range e.batch {
		lc.add(ts.Status, 1)
	}
	for _, m := range e.machines {
		for _, ts := range m.queue {
			lc.add(ts.Status, 1)
		}
	}
	for _, ts := range rec.TaskStates() {
		if ts.Task != nil { // a zero record is a task still live, counted above
			lc.add(ts.Status, 1)
		}
	}
	lc.Arrived = lc.Batch + lc.Queued + lc.Running + lc.total()
	return lc
}
