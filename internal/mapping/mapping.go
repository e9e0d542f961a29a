// Package mapping implements the mapping heuristics of §V-B: the
// heterogeneous-system two-phase batch heuristics MinMin (MM), MSD and PAM,
// the homogeneous-system queue disciplines FCFS, SJF and EDF, and two
// classic HC heuristics, MET and KPB, which each beat PAM in some cell of
// a paired sweep (README, "Mapping heuristics").
//
// Every heuristic is a stateless value implementing sim.Mapper, so one
// instance serves any number of engines; FromSpec constructs them by name.
package mapping

import (
	"fmt"
	"math"
	"sort"

	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/spec"
)

// FromSpec constructs a mapper from a parameterized spec string (see
// package spec for the grammar). Recognized components: MinMin/MM, MSD,
// PAM, FCFS, SJF, EDF, MET and KPB; the last takes a parameter:
//
//	kpb:percent=<int in (0,100]>
//
// The value returned keeps no state, so callers resolve a spec once and
// share the mapper across engines and goroutines.
func FromSpec(s string) (sim.Mapper, error) {
	name, params, err := spec.Parse(s)
	if err != nil {
		return nil, err
	}
	var m sim.Mapper
	switch name {
	case "minmin", "mm":
		m = MinMin{}
	case "msd":
		m = MSD{}
	case "pam":
		m = PAM{}
	case "fcfs":
		m = FCFS{}
	case "sjf":
		m = SJF{}
	case "edf":
		m = EDF{}
	case "met":
		m = MET{}
	case "kpb":
		k := KPB{Percent: params.Int("percent", 25)}
		if k.Percent <= 0 || k.Percent > 100 {
			return nil, fmt.Errorf("mapping: kpb percent must be in (0,100], got %q", s)
		}
		m = k
	default:
		return nil, fmt.Errorf("mapping: unknown heuristic %q", s)
	}
	if err := params.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// Names lists the constructible heuristic names.
func Names() []string {
	return []string{"MinMin", "MSD", "PAM", "FCFS", "SJF", "EDF", "MET", "KPB"}
}

// bestByECT returns the free machine giving task ts the minimum expected
// completion time (ECT: the mean of the Eq. 1 candidate completion PMF),
// and that minimum. cutoff is the ECT the caller's incumbent holds (+Inf
// when it has none or takes any): the result is exact whenever the minimum
// is below cutoff, and otherwise (nil, +Inf) or an ECT at or above cutoff —
// which callers comparing against cutoff reject alike.
//
// That licence is what lets the scan skip convolutions. A machine whose
// ECT lower bound already reaches the smaller of cutoff and the best so
// far can neither take the minimum (only a strictly smaller ECT does) nor
// come in under cutoff, so it is skipped at its turn and the machines
// visited, their order and every tie-break stay those of the full scan.
func bestByECT(ev *sim.MappingEvent, ts *sim.TaskState, free []*sim.Machine, cutoff float64) (*sim.Machine, float64) {
	var best *sim.Machine
	bestECT := math.Inf(1)
	for _, m := range free {
		if ev.CandidateMeanLowerBound(ts, m) >= min(bestECT, cutoff) {
			ev.Pruned(1)
			continue
		}
		if ect := ev.CandidateCompletion(ts, m).Mean(); ect < bestECT {
			best, bestECT = m, ect
		}
	}
	return best, bestECT
}

// noCutoff is bestByECT's cutoff for callers that take the minimum at any
// ECT.
var noCutoff = math.Inf(1)

// cannotBeat reports whether lower bounds alone show that ts has no
// candidate among free with an ECT below cutoff.
func cannotBeat(ev *sim.MappingEvent, ts *sim.TaskState, free []*sim.Machine, cutoff float64) bool {
	for _, m := range free {
		if ev.CandidateMeanLowerBound(ts, m) < cutoff {
			return false
		}
	}
	ev.Pruned(len(free))
	return true
}

// MinMin is the MinCompletion-MinCompletion batch heuristic (§V-B1): phase
// one pairs every unmapped task with the machine minimizing its expected
// completion time; phase two commits the pair with the overall minimum
// expected completion time, then repeats until queues are full or the
// batch is empty.
type MinMin struct{}

// Name implements sim.Mapper.
func (MinMin) Name() string { return "MinMin" }

// Map implements sim.Mapper.
func (MinMin) Map(ev *sim.MappingEvent) {
	for {
		free := ev.FreeMachines()
		if len(free) == 0 || len(ev.Batch()) == 0 {
			return
		}
		var (
			pickTask *sim.TaskState
			pickMach *sim.Machine
			pickECT  = math.Inf(1)
		)
		for _, ts := range ev.Batch() {
			m, ect := bestByECT(ev, ts, free, pickECT)
			if ect < pickECT {
				pickTask, pickMach, pickECT = ts, m, ect
			}
		}
		if pickTask == nil {
			return
		}
		ev.Assign(pickTask, pickMach)
	}
}

// MSD is the MinCompletion-Soonest Deadline batch heuristic (§V-B2): phase
// one as MinMin; phase two commits the pair with the soonest deadline, ties
// broken by minimum expected completion time.
type MSD struct{}

// Name implements sim.Mapper.
func (MSD) Name() string { return "MSD" }

// Map implements sim.Mapper.
func (MSD) Map(ev *sim.MappingEvent) {
	for {
		free := ev.FreeMachines()
		if len(free) == 0 || len(ev.Batch()) == 0 {
			return
		}
		var (
			pickTask *sim.TaskState
			pickMach *sim.Machine
			pickECT  = math.Inf(1)
		)
		for _, ts := range ev.Batch() {
			// A sooner deadline takes the pick at any ECT, an equal one
			// only below the incumbent's, a later one never — so a later
			// task is not evaluated at all.
			cutoff := noCutoff
			if pickTask != nil {
				if ts.Task.Deadline > pickTask.Task.Deadline {
					ev.Pruned(len(free))
					continue
				}
				if ts.Task.Deadline == pickTask.Task.Deadline {
					cutoff = pickECT
				}
			}
			if m, ect := bestByECT(ev, ts, free, cutoff); ect < cutoff {
				pickTask, pickMach, pickECT = ts, m, ect
			}
		}
		if pickTask == nil {
			return
		}
		ev.Assign(pickTask, pickMach)
	}
}

// PAM is the Pruning-Aware Mapping heuristic of Gentry et al. (§V-B3):
// phase one pairs every task with the machine offering the highest chance
// of success; phase two commits the pair with the lowest expected
// completion time, ties broken by shortest expected execution time. (Task
// deferring, which PAM also performs, is disabled per §V-B3.)
type PAM struct{}

// Name implements sim.Mapper.
func (PAM) Name() string { return "PAM" }

// Map implements sim.Mapper.
func (PAM) Map(ev *sim.MappingEvent) {
	for {
		free := ev.FreeMachines()
		if len(free) == 0 || len(ev.Batch()) == 0 {
			return
		}
		var (
			pickTask *sim.TaskState
			pickMach *sim.Machine
			pickECT  = math.Inf(1)
			pickExec = math.Inf(1)
		)
		for _, ts := range ev.Batch() {
			// Phase 2 takes a task only at an ECT below pickECT+1e-9.
			// Whichever machine phase 1 would choose, its ECT is at least
			// the smallest lower bound over the free machines; if that
			// already reaches the threshold the task cannot take the pick
			// and none of its candidates is convolved.
			if cannotBeat(ev, ts, free, pickECT+1e-9) {
				continue
			}
			// Phase 1: machine with the highest chance of success; ties by
			// lower expected completion.
			var (
				bm      *sim.Machine
				bestCoS = -1.0
				bestECT = math.Inf(1)
			)
			for _, m := range free {
				c := ev.CandidateCompletion(ts, m)
				cos := c.MassBefore(ts.Task.Deadline)
				ect := c.Mean()
				if cos > bestCoS+1e-12 || (cos > bestCoS-1e-12 && ect < bestECT) {
					bm, bestCoS, bestECT = m, cos, ect
				}
			}
			if bm == nil {
				continue
			}
			// Phase 2: lowest completion time; ties by shortest execution.
			exec := ev.ExpectedExec(ts, bm)
			if bestECT < pickECT-1e-9 || (bestECT < pickECT+1e-9 && exec < pickExec) {
				pickTask, pickMach, pickECT, pickExec = ts, bm, bestECT, exec
			}
		}
		if pickTask == nil {
			return
		}
		ev.Assign(pickTask, pickMach)
	}
}

// FCFS maps the earliest-arrived task first, to the machine with the
// earliest expected availability (the tail completion mean).
type FCFS struct{}

// Name implements sim.Mapper.
func (FCFS) Name() string { return "FCFS" }

// Map implements sim.Mapper.
func (FCFS) Map(ev *sim.MappingEvent) {
	for len(ev.Batch()) > 0 {
		free := ev.FreeMachines()
		if len(free) == 0 {
			return
		}
		ts := ev.Batch()[0]
		m, _ := bestByECT(ev, ts, free, noCutoff)
		ev.Assign(ts, m)
	}
}

// SJF maps the task with the shortest expected execution time first (its
// cheapest PET cell), to the machine minimizing its expected completion.
type SJF struct{}

// Name implements sim.Mapper.
func (SJF) Name() string { return "SJF" }

// Map implements sim.Mapper.
func (SJF) Map(ev *sim.MappingEvent) {
	for len(ev.Batch()) > 0 {
		free := ev.FreeMachines()
		if len(free) == 0 {
			return
		}
		var (
			pick     *sim.TaskState
			pickExec = math.Inf(1)
		)
		for _, ts := range ev.Batch() {
			e := math.Inf(1)
			for _, m := range free {
				if v := ev.ExpectedExec(ts, m); v < e {
					e = v
				}
			}
			if e < pickExec {
				pick, pickExec = ts, e
			}
		}
		m, _ := bestByECT(ev, pick, free, noCutoff)
		ev.Assign(pick, m)
	}
}

// EDF maps the task with the earliest deadline first, to the machine
// minimizing its expected completion.
type EDF struct{}

// Name implements sim.Mapper.
func (EDF) Name() string { return "EDF" }

// Map implements sim.Mapper.
func (EDF) Map(ev *sim.MappingEvent) {
	for len(ev.Batch()) > 0 {
		free := ev.FreeMachines()
		if len(free) == 0 {
			return
		}
		pick := ev.Batch()[0]
		for _, ts := range ev.Batch()[1:] {
			if ts.Task.Deadline < pick.Task.Deadline {
				pick = ts
			}
		}
		m, _ := bestByECT(ev, pick, free, noCutoff)
		ev.Assign(pick, m)
	}
}

// MET (Minimum Execution Time) maps tasks in arrival order, each to the
// machine with its smallest mean execution time, ignoring queue state —
// the classic load-blind baseline.
type MET struct{}

// Name implements sim.Mapper.
func (MET) Name() string { return "MET" }

// Map implements sim.Mapper.
func (MET) Map(ev *sim.MappingEvent) {
	for len(ev.Batch()) > 0 {
		free := ev.FreeMachines()
		if len(free) == 0 {
			return
		}
		ts := ev.Batch()[0]
		var (
			pick     *sim.Machine
			pickExec = math.Inf(1)
		)
		for _, m := range free {
			if v := ev.ExpectedExec(ts, m); v < pickExec {
				pick, pickExec = m, v
			}
		}
		ev.Assign(ts, pick)
	}
}

// KPB (K-Percent Best) maps tasks in arrival order; each task considers
// only the K percent of free machines with its best mean execution times
// and picks the minimum expected completion among them.
type KPB struct {
	// Percent is K in (0, 100]; at least one machine is always considered.
	Percent int
}

// Name implements sim.Mapper.
func (KPB) Name() string { return "KPB" }

// Map implements sim.Mapper.
func (k KPB) Map(ev *sim.MappingEvent) {
	pct := k.Percent
	if pct <= 0 || pct > 100 {
		pct = 25
	}
	for len(ev.Batch()) > 0 {
		free := ev.FreeMachines()
		if len(free) == 0 {
			return
		}
		ts := ev.Batch()[0]
		sort.Slice(free, func(i, j int) bool {
			return ev.ExpectedExec(ts, free[i]) < ev.ExpectedExec(ts, free[j])
		})
		n := (len(free)*pct + 99) / 100
		if n < 1 {
			n = 1
		}
		m, _ := bestByECT(ev, ts, free[:n], noCutoff)
		ev.Assign(ts, m)
	}
}
