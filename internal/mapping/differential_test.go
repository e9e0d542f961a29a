package mapping_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// The batch mappers skip candidates whose ECT lower bound shows they
// cannot change the round's pick (see bestByECT). This file holds the
// oracle for that: exhaustive copies of the PAM, MinMin and MSD scans that
// convolve every (task, free machine) pair and know nothing of bounds,
// driven over the same oversubscribed traces. The pruned mappers must
// commit the same assignments in the same order and end in the same
// Result, with warm chain caches and with ColdChains.

// exhaustiveBestByECT is the full scan bestByECT prunes.
func exhaustiveBestByECT(ev *sim.MappingEvent, ts *sim.TaskState, free []*sim.Machine) (*sim.Machine, float64) {
	var best *sim.Machine
	bestECT := math.Inf(1)
	for _, m := range free {
		if ect := ev.CandidateCompletion(ts, m).Mean(); ect < bestECT {
			best, bestECT = m, ect
		}
	}
	return best, bestECT
}

func freeMachines(ev *sim.MappingEvent) []*sim.Machine {
	var out []*sim.Machine
	for _, m := range ev.Machines() {
		if ev.FreeSlots(m) > 0 {
			out = append(out, m)
		}
	}
	return out
}

// exhaustive is a reference batch mapper: pick chooses one (task, machine)
// pair per round by a full scan, nil when nothing is to be committed.
type exhaustive struct {
	name string
	pick func(ev *sim.MappingEvent, free []*sim.Machine) (*sim.TaskState, *sim.Machine)
}

func (x exhaustive) Name() string { return x.name }

func (x exhaustive) Map(ev *sim.MappingEvent) {
	for {
		free := freeMachines(ev)
		if len(free) == 0 || len(ev.Batch()) == 0 {
			return
		}
		ts, m := x.pick(ev, free)
		if ts == nil {
			return
		}
		ev.Assign(ts, m)
	}
}

func exhaustiveMinMin(ev *sim.MappingEvent, free []*sim.Machine) (pickTask *sim.TaskState, pickMach *sim.Machine) {
	pickECT := math.Inf(1)
	for _, ts := range ev.Batch() {
		m, ect := exhaustiveBestByECT(ev, ts, free)
		if ect < pickECT {
			pickTask, pickMach, pickECT = ts, m, ect
		}
	}
	return pickTask, pickMach
}

func exhaustiveMSD(ev *sim.MappingEvent, free []*sim.Machine) (pickTask *sim.TaskState, pickMach *sim.Machine) {
	pickECT := math.Inf(1)
	for _, ts := range ev.Batch() {
		m, ect := exhaustiveBestByECT(ev, ts, free)
		better := pickTask == nil ||
			ts.Task.Deadline < pickTask.Task.Deadline ||
			(ts.Task.Deadline == pickTask.Task.Deadline && ect < pickECT)
		if better {
			pickTask, pickMach, pickECT = ts, m, ect
		}
	}
	return pickTask, pickMach
}

func exhaustivePAM(ev *sim.MappingEvent, free []*sim.Machine) (pickTask *sim.TaskState, pickMach *sim.Machine) {
	pickECT, pickExec := math.Inf(1), math.Inf(1)
	for _, ts := range ev.Batch() {
		var bm *sim.Machine
		bestCoS, bestECT := -1.0, math.Inf(1)
		for _, m := range free {
			c := ev.CandidateCompletion(ts, m)
			cos, ect := c.MassBefore(ts.Task.Deadline), c.Mean()
			if cos > bestCoS+1e-12 || (cos > bestCoS-1e-12 && ect < bestECT) {
				bm, bestCoS, bestECT = m, cos, ect
			}
		}
		exec := ev.ExpectedExec(ts, bm)
		if bestECT < pickECT-1e-9 || (bestECT < pickECT+1e-9 && exec < pickExec) {
			pickTask, pickMach, pickECT, pickExec = ts, bm, bestECT, exec
		}
	}
	return pickTask, pickMach
}

// assignment is one committed (task, machine) pair.
type assignment struct{ task, machine int }

// assignLog wraps a mapper and logs what each mapping event committed:
// per event, every machine's newly queued tasks in queue order. That is
// the Assign sequence up to how different machines' commits interleave
// within one event — which nothing downstream can observe.
type assignLog struct {
	sim.Mapper
	log []assignment
}

func (l *assignLog) Map(ev *sim.MappingEvent) {
	before := make([]int, len(ev.Machines()))
	for i, m := range ev.Machines() {
		before[i] = len(m.Queue())
	}
	l.Mapper.Map(ev)
	for i, m := range ev.Machines() {
		for _, ts := range m.Queue()[before[i]:] {
			l.log = append(l.log, assignment{ts.Task.ID, m.Spec.Index})
		}
	}
}

// TestPrunedMappersMatchExhaustive is the differential suite: 20 seeded
// traces (10 per profile, spec and video, at the 30k-tasks-per-window
// oversubscription level, under a proactive and a purely reactive dropper
// alternately), each run three ways per mapper — exhaustive, pruned warm
// and pruned with ColdChains.
func TestPrunedMappersMatchExhaustive(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 2
	}
	profiles := []struct {
		name string
		m    *pet.Matrix
	}{
		{"spec", pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())},
		{"video", pet.Build(pet.VideoProfile(), pet.DefaultProfileSeed, pet.DefaultBuildOptions())},
	}
	mappers := []struct {
		pruned sim.Mapper
		ref    exhaustive
	}{
		{mapping.PAM{}, exhaustive{"PAM", exhaustivePAM}},
		{mapping.MinMin{}, exhaustive{"MinMin", exhaustiveMinMin}},
		{mapping.MSD{}, exhaustive{"MSD", exhaustiveMSD}},
	}
	type outcome struct {
		log    []assignment
		res    sim.Result
		states []sim.TaskState
		stats  core.CalcStats
	}
	run := func(m *pet.Matrix, tr *workload.Trace, mapper sim.Mapper, dropper core.Policy, cold bool) outcome {
		cfg := sim.DefaultConfig()
		cfg.ColdChains = cold
		rec := &assignLog{Mapper: mapper}
		e := sim.New(m, tr, rec, dropper, cfg)
		tasks := sim.Record(e)
		res := e.Run()
		return outcome{rec.log, *res, tasks.TaskStates(), e.Calc().Stats()}
	}
	for _, p := range profiles {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			tr := workload.Generate(p.m, workload.Config{
				TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack,
			}.Scaled(0.025), seed)
			var dropper core.Policy = core.ReactiveOnly{}
			if seed%2 == 0 {
				dropper = core.NewHeuristic()
			}
			for _, mp := range mappers {
				t.Run(fmt.Sprintf("%s/seed%d/%s", p.name, seed, mp.ref.name), func(t *testing.T) {
					want := run(p.m, tr, mp.ref, dropper, false)
					if want.stats.CandidatesPruned != 0 || want.stats.CandidatesEvaluated == 0 {
						t.Fatalf("reference mapper pruned %d of its candidates (evaluated %d)", want.stats.CandidatesPruned, want.stats.CandidatesEvaluated)
					}
					for _, c := range []struct {
						name   string
						mapper sim.Mapper
						cold   bool
					}{
						{"pruned warm", mp.pruned, false},
						{"pruned cold", mp.pruned, true},
					} {
						got := run(p.m, tr, c.mapper, dropper, c.cold)
						if !reflect.DeepEqual(got.log, want.log) {
							t.Fatalf("%s: assign sequence differs from the exhaustive warm run (%d vs %d commits)", c.name, len(got.log), len(want.log))
						}
						if got.res != want.res {
							t.Fatalf("%s: result differs:\n got %+v\nwant %+v", c.name, got.res, want.res)
						}
						if !reflect.DeepEqual(got.states, want.states) {
							t.Fatalf("%s: per-task states differ", c.name)
						}
						if got.stats.CandidatesPruned == 0 {
							t.Fatalf("%s: nothing was pruned, the comparison is vacuous", c.name)
						}
						if got.stats.CandidatesEvaluated >= want.stats.CandidatesEvaluated {
							t.Fatalf("%s: evaluated %d candidates, the exhaustive scan %d", c.name, got.stats.CandidatesEvaluated, want.stats.CandidatesEvaluated)
						}
					}
				})
			}
		}
	}
}
