package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// Result summarizes one simulated trial. The JSON tags serialize runs for
// downstream tooling (dashboards, notebook analysis, regression tracking).
type Result struct {
	// Total is the number of tasks in the trace; Measured excludes the
	// first and last BoundaryExclusion tasks (§V-A).
	Total    int `json:"total"`
	Measured int `json:"measured"`

	// Whole-trace terminal counts. Failed counts tasks killed by injected
	// machine failures (zero unless Config.Failures is enabled).
	OnTime           int `json:"on_time"`
	Late             int `json:"late"`
	DroppedReactive  int `json:"dropped_reactive"`
	DroppedProactive int `json:"dropped_proactive"`
	Failed           int `json:"failed"`

	// Measured-window terminal counts.
	MOnTime           int `json:"m_on_time"`
	MLate             int `json:"m_late"`
	MDroppedReactive  int `json:"m_dropped_reactive"`
	MDroppedProactive int `json:"m_dropped_proactive"`
	MFailed           int `json:"m_failed"`

	// RobustnessPct is the paper's robustness metric: percentage of
	// measured tasks completed on time.
	RobustnessPct float64 `json:"robustness_pct"`
	// UtilityPct is the approximate-computing value metric (the §VI
	// extension): mean realized utility of measured tasks (%), where a
	// task completed strictly before its deadline is worth 1, one
	// finishing within Config.ReactiveGrace after it the linear remainder
	// 1 − lateness/grace, and everything else (later completions, drops,
	// failures) 0. With zero grace it equals RobustnessPct.
	UtilityPct float64 `json:"utility_pct"`

	// TotalCostUSD is the execution cost across machines (busy time ×
	// hourly price). CostPerRobustness is Fig. 9's normalized cost:
	// TotalCostUSD divided by RobustnessPct.
	TotalCostUSD      float64 `json:"total_cost_usd"`
	CostPerRobustness float64 `json:"cost_per_robustness"`

	// Makespan is the clock at drain time; BusyTicks the summed machine
	// busy time; UtilizationPct the busy share of machine·time capacity.
	Makespan       pmf.Tick `json:"makespan"`
	BusyTicks      pmf.Tick `json:"busy_ticks"`
	UtilizationPct float64  `json:"utilization_pct"`
}

// DropReactiveShare returns the fraction of all measured drops that were
// reactive — the §V-F diagnostic (≈7% under the proactive heuristic).
func (r *Result) DropReactiveShare() float64 {
	d := r.MDroppedReactive + r.MDroppedProactive
	if d == 0 {
		return 0
	}
	return float64(r.MDroppedReactive) / float64(d)
}

// Validate checks conservation: every task reached exactly one terminal
// state.
func (r *Result) Validate() error {
	sum := r.OnTime + r.Late + r.DroppedReactive + r.DroppedProactive + r.Failed
	if sum != r.Total {
		return fmt.Errorf("sim: task conservation violated: %d terminal vs %d total", sum, r.Total)
	}
	msum := r.MOnTime + r.MLate + r.MDroppedReactive + r.MDroppedProactive + r.MFailed
	if msum != r.Measured {
		return fmt.Errorf("sim: measured conservation violated: %d terminal vs %d measured", msum, r.Measured)
	}
	return nil
}

// buildResult reads the Result of a drained run off the tally and the
// machines.
func (e *Engine) buildResult() *Result {
	whole := e.live.Outcomes
	m, credit := e.tally.measured(whole, e.live.Arrived)
	r := &Result{
		Total:            e.live.Arrived,
		Makespan:         e.clock,
		OnTime:           whole.OnTime,
		Late:             whole.Late,
		DroppedReactive:  whole.DroppedReactive,
		DroppedProactive: whole.DroppedProactive,
		Failed:           whole.Failed,

		Measured:          m.total(),
		MOnTime:           m.OnTime,
		MLate:             m.Late,
		MDroppedReactive:  m.DroppedReactive,
		MDroppedProactive: m.DroppedProactive,
		MFailed:           m.Failed,
	}
	if r.Measured > 0 {
		r.RobustnessPct = 100 * float64(r.MOnTime) / float64(r.Measured)
		// Mean utility: 1 per on-time task, Credit/ReactiveGrace per late
		// one (the linear remainder 1 − lateness/grace, 0 past the window).
		utility := float64(r.MOnTime)
		if credit > 0 {
			utility += float64(credit) / float64(e.cfg.ReactiveGrace)
		}
		r.UtilityPct = 100 * utility / float64(r.Measured)
	}
	var busy pmf.Tick
	var cost float64
	for _, m := range e.machines {
		busy += m.busy
		cost += float64(m.busy) / 3.6e6 * m.Spec.PriceHour
	}
	r.BusyTicks = busy
	r.TotalCostUSD = cost
	if r.RobustnessPct > 0 {
		r.CostPerRobustness = cost / r.RobustnessPct
	}
	if e.clock > 0 && len(e.machines) > 0 {
		r.UtilizationPct = 100 * float64(busy) / (float64(e.clock) * float64(len(e.machines)))
	}
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return r
}

// MergeResults folds per-shard trial Results into one cluster Result.
// Counts and costs sum; the makespan is the slowest shard's clock; rate
// metrics are recomputed from the merged counts (robustness from merged
// measured counts, utility as the measured-task-weighted mean, utilization
// against totalMachines across the whole cluster). With a single part the
// result is returned unchanged — the identity that keeps a 1-shard
// cluster bit-identical to the unsharded engine.
func MergeResults(parts []*Result, totalMachines int) *Result {
	if len(parts) == 0 {
		panic("sim: MergeResults of no parts")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	r := &Result{}
	var utilityWeighted float64
	for _, p := range parts {
		r.Total += p.Total
		r.Measured += p.Measured
		r.OnTime += p.OnTime
		r.Late += p.Late
		r.DroppedReactive += p.DroppedReactive
		r.DroppedProactive += p.DroppedProactive
		r.Failed += p.Failed
		r.MOnTime += p.MOnTime
		r.MLate += p.MLate
		r.MDroppedReactive += p.MDroppedReactive
		r.MDroppedProactive += p.MDroppedProactive
		r.MFailed += p.MFailed
		r.TotalCostUSD += p.TotalCostUSD
		r.BusyTicks += p.BusyTicks
		if p.Makespan > r.Makespan {
			r.Makespan = p.Makespan
		}
		utilityWeighted += p.UtilityPct * float64(p.Measured)
	}
	if r.Measured > 0 {
		r.RobustnessPct = 100 * float64(r.MOnTime) / float64(r.Measured)
		r.UtilityPct = utilityWeighted / float64(r.Measured)
	}
	if r.RobustnessPct > 0 {
		r.CostPerRobustness = r.TotalCostUSD / r.RobustnessPct
	}
	if r.Makespan > 0 && totalMachines > 0 {
		r.UtilizationPct = 100 * float64(r.BusyTicks) / (float64(r.Makespan) * float64(totalMachines))
	}
	if err := r.Validate(); err != nil {
		panic(err)
	}
	return r
}
