package sim

import (
	"fmt"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
)

// TestResultFromTallyMatchesRecount is the property the single account
// rests on: whatever the run — boundary exclusion none, small or the
// paper's, grace on or off, failures on or off, one engine or three shard
// engines, machines removed (queue handed off and force-dropped) and
// revived on the way — the Result an engine reads off its tally equals the
// one recomputed from a recorder's per-task records by the definition the
// engine used when it kept every task.
func TestResultFromTallyMatchesRecount(t *testing.T) {
	sawCredit, sawFailed := false, false
	for seed := int64(1); seed <= 2; seed++ {
		m, tr := clusterTestSystem(t, 600, seed)
		n := len(tr.Tasks)
		for _, b := range []int{0, 3, 100} {
			for _, grace := range []pmf.Tick{0, 25} {
				for _, failures := range []bool{false, true} {
					for _, shards := range []int{1, 3} {
						label := fmt.Sprintf("seed %d boundary %d grace %d failures %v shards %d", seed, b, grace, failures, shards)
						cfg := Config{QueueCap: 6, BoundaryExclusion: b, ReactiveGrace: grace}
						if failures {
							cfg.Failures = FailureConfig{MTBF: 4000, MeanRepair: 300, Seed: seed}
						}
						cl, err := NewCluster(m, shards, router.RoundRobin{}, pamHeuristic(t), cfg)
						if err != nil {
							t.Fatal(err)
						}
						recs := make([]*Recorder, shards)
						for s, eng := range cl.Shards() {
							recs[s] = Record(eng)
						}
						for i := range tr.Tasks {
							at := tr.Tasks[i].Arrival
							switch i {
							case n / 3:
								err = cl.ApplyChurn(ChurnEvent{At: at, MemberOp: MemberOp{Kind: MemberRemove, Machine: 1}})
							case n / 2:
								err = cl.ApplyChurn(ChurnEvent{At: at, MemberOp: MemberOp{Kind: MemberRevive, Machine: 1}})
							case 2 * n / 3:
								err = cl.ApplyChurn(ChurnEvent{At: at, MemberOp: MemberOp{Kind: MemberRemove, Machine: 2, Handoff: true}})
							}
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							cl.Feed(&tr.Tasks[i])
						}
						parts := make([]*Result, shards)
						for s, eng := range cl.Shards() {
							parts[s] = eng.Drain()
							requireRefResult(t, fmt.Sprintf("%s, shard %d", label, s), eng, parts[s], recs[s].TaskStates())
							sawCredit = sawCredit || parts[s].UtilityPct > parts[s].RobustnessPct
							sawFailed = sawFailed || parts[s].MFailed > 0
						}
						if err := MergeResults(parts, cl.NumMachines()).Validate(); err != nil {
							t.Fatalf("%s: merged: %v", label, err)
						}
					}
				}
			}
		}
	}
	if !sawCredit || !sawFailed {
		t.Fatalf("vacuous: grace credit earned %v, measured task failed %v", sawCredit, sawFailed)
	}
}

// TestDegenerateMeasuredWindows pins the three runs around twice the
// boundary exclusion: one task short of having both edges is measured
// whole, exactly both edges measures nothing (and scores 0, not NaN), one
// more measures the one task between them.
func TestDegenerateMeasuredWindows(t *testing.T) {
	const b = 3
	m := testMatrix(t, 2, pmf.Delta(10))
	for n, measured := range map[int]int{2*b - 1: 2*b - 1, 2 * b: 0, 2*b + 1: 1} {
		cfg := DefaultConfig()
		cfg.BoundaryExclusion, cfg.ReactiveGrace = b, 25
		e := NewOpen(m, fifoMapper{}, nil, cfg)
		rec := Record(e)
		tasks := randomOpenTasks(n, 3)
		for i := range tasks {
			e.Feed(&tasks[i])
		}
		res := e.Drain()
		requireRefResult(t, fmt.Sprintf("%d tasks", n), e, res, rec.TaskStates())
		if res.Total != n || res.Measured != measured {
			t.Fatalf("%d tasks at boundary exclusion %d: measured %d of %d, want %d", n, b, res.Measured, res.Total, measured)
		}
		if measured == 0 && (res.RobustnessPct != 0 || res.UtilityPct != 0) {
			t.Fatalf("empty window scored robustness %v, utility %v", res.RobustnessPct, res.UtilityPct)
		}
	}
}
