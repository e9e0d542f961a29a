package sim

import "github.com/hpcclab/taskdrop/internal/pmf"

// Outcomes counts settled tasks by the terminal state they reached.
type Outcomes struct {
	OnTime           int `json:"on_time"`
	Late             int `json:"late"`
	DroppedReactive  int `json:"dropped_reactive"`
	DroppedProactive int `json:"dropped_proactive"`
	Failed           int `json:"failed"`
}

// add shifts the count of terminal status s by d.
func (o *Outcomes) add(s Status, d int) {
	switch s {
	case StatusCompletedOnTime:
		o.OnTime += d
	case StatusCompletedLate:
		o.Late += d
	case StatusDroppedReactive:
		o.DroppedReactive += d
	case StatusDroppedProactive:
		o.DroppedProactive += d
	case StatusFailed:
		o.Failed += d
	}
}

// total is the number of tasks counted.
func (o Outcomes) total() int {
	return o.OnTime + o.Late + o.DroppedReactive + o.DroppedProactive + o.Failed
}

// Settled is how one task ended: its terminal status and its grace credit
// — for a completion that finished late but inside the grace window, the
// ticks of ReactiveGrace it left unused; 0 for every other outcome. A
// task's utility is 1 when on time and Credit/ReactiveGrace otherwise.
type Settled struct {
	Status Status   `json:"s"`
	Credit pmf.Tick `json:"c,omitempty"`
}

// Tally is all the engine keeps of a task once it is terminal. The
// whole-run counts by outcome are the terminal half of Live; the tally
// holds what the measured window (§V-A: all but the first and last
// BoundaryExclusion arrivals) needs beside them. Grace credit is summed in
// ticks, so UtilityPct does not depend on the order tasks settled in.
type Tally struct {
	// Credit is the whole run's grace credit.
	Credit pmf.Tick `json:"credit"`
	// Head counts the outcomes, and HeadCredit sums the credit, of the
	// first BoundaryExclusion arrivals.
	Head       Outcomes `json:"head"`
	HeadCredit pmf.Tick `json:"head_credit"`
	// Tail is a ring over the last BoundaryExclusion arrivals: the task
	// with arrival ordinal k writes slot k mod BoundaryExclusion when it
	// settles, unless BoundaryExclusion later arrivals have already pushed
	// it out of the tail. Once everything has settled the ring holds
	// exactly the last BoundaryExclusion arrivals' outcomes.
	Tail []Settled `json:"tail,omitempty"`
}

// settle folds a task that has just turned terminal into the tally.
func (e *Engine) settle(ts *TaskState) {
	var credit pmf.Tick
	if late := ts.Finish - ts.Task.Deadline; ts.Status == StatusCompletedLate && late < e.cfg.ReactiveGrace {
		credit = e.cfg.ReactiveGrace - late
	}
	t, b := &e.tally, e.cfg.BoundaryExclusion
	t.Credit += credit
	if ts.Seq < b {
		t.Head.add(ts.Status, 1)
		t.HeadCredit += credit
	}
	if b > 0 && ts.Seq >= e.live.Arrived-b {
		t.Tail[ts.Seq%b] = Settled{Status: ts.Status, Credit: credit}
	}
}

// measured returns the outcome counts and grace credit of the measured
// window of a drained run of n tasks: the whole run less its head and
// tail. A run too short to have both edges (fewer than twice
// BoundaryExclusion tasks) is measured whole rather than not at all.
func (t *Tally) measured(whole Outcomes, n int) (Outcomes, pmf.Tick) {
	m, credit := whole, t.Credit
	if n < 2*len(t.Tail) {
		return m, credit
	}
	credit -= t.HeadCredit
	m.OnTime -= t.Head.OnTime
	m.Late -= t.Head.Late
	m.DroppedReactive -= t.Head.DroppedReactive
	m.DroppedProactive -= t.Head.DroppedProactive
	m.Failed -= t.Head.Failed
	for _, s := range t.Tail {
		m.add(s.Status, -1)
		credit -= s.Credit
	}
	return m, credit
}
