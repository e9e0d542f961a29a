package sim

import (
	"math/rand"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Warm-vs-cold differential suite.
//
// The persistent per-machine chain caches (core.ChainCache) are supposed
// to be bitwise-transparent: signature-gated reuse must never change a
// PMF, and therefore never change a decision. These tests hold the engine
// to that by running every scenario twice — caches warm (the default) and
// Config.ColdChains (every cache invalidated at each mapping event, the
// old wipe-everything discipline) — and requiring identical results down
// to per-task terminal states. The warm side also exercises the
// StableDecider skip (an empty drop decision memoized across events),
// which the cold side never takes.

// requireSameRun drives both engines through run, a recorder subscribed
// to each, and fails unless they produced identical results and identical
// per-task histories.
func requireSameRun(t *testing.T, label string, warm, cold *Engine, run func(*Engine) *Result) {
	t.Helper()
	recW, recC := Record(warm), Record(cold)
	rw, rc := run(warm), run(cold)
	if *rw != *rc {
		t.Fatalf("%s: results diverge:\nwarm %+v\ncold %+v", label, rw, rc)
	}
	tw, tc := recW.TaskStates(), recC.TaskStates()
	if len(tw) != len(tc) {
		t.Fatalf("%s: task counts diverge: warm %d cold %d", label, len(tw), len(tc))
	}
	for i := range tw {
		a, b := tw[i], tc[i]
		if a.Status != b.Status || a.Start != b.Start || a.Finish != b.Finish || a.Machine != b.Machine {
			t.Fatalf("%s: task %d diverges:\nwarm status=%v start=%d finish=%d machine=%d\ncold status=%v start=%d finish=%d machine=%d",
				label, a.Task.ID, a.Status, a.Start, a.Finish, a.Machine, b.Status, b.Start, b.Finish, b.Machine)
		}
	}
	// If the run evaluated chains at all (reactive-only configurations
	// don't), the warm side must actually have reused cached roots —
	// otherwise the differential is vacuous.
	if st := warm.Calc().Stats(); st.RootMisses > 0 && st.RootHits == 0 {
		t.Fatalf("%s: warm run evaluated chains but never hit a cached root — differential is vacuous", label)
	}
}

// TestWarmVsColdDifferentialSweep replays randomized closed-trace
// configurations — profiles, droppers, queue bounds, failures, grace —
// warm and cold and requires identical outcomes.
func TestWarmVsColdDifferentialSweep(t *testing.T) {
	profiles := []pet.Profile{pet.VideoProfile(), pet.HomogeneousProfile(), pet.SPECProfile(3)}
	matrices := make([]*pet.Matrix, len(profiles))
	for i, p := range profiles {
		matrices[i] = pet.Build(p, int64(i+1), pet.BuildOptions{SamplesPerCell: 120, BinsPerPMF: 12})
	}
	droppers := []func() core.Policy{
		func() core.Policy { return nil },
		func() core.Policy { return core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta} },
		func() core.Policy { return core.Optimal{} },
		func() core.Policy { return core.Threshold{Base: core.DefaultThresholdBase, Adaptive: true} },
		func() core.Policy { return core.ApproxHeuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta} },
	}
	r := rand.New(rand.NewSource(42))
	const cases = 12
	for i := 0; i < cases; i++ {
		m := matrices[r.Intn(len(matrices))]
		mk := droppers[r.Intn(len(droppers))]
		cfg := DefaultConfig()
		cfg.QueueCap = 2 + r.Intn(6)
		cfg.BoundaryExclusion = 0
		cfg.DropOnArrival = r.Intn(2) == 0
		if r.Intn(3) == 0 {
			cfg.ReactiveGrace = pmf.Tick(r.Intn(100))
		}
		if _, ok := mk().(core.ApproxHeuristic); ok && cfg.ReactiveGrace == 0 {
			cfg.ReactiveGrace = 80 // approx values late completions by the engine's grace alone
		}
		if r.Intn(3) == 0 {
			cfg.Failures = FailureConfig{MTBF: pmf.Tick(300 + r.Intn(1500)), MeanRepair: pmf.Tick(20 + r.Intn(150)), Seed: int64(i)}
		}
		tr := workload.Generate(m, workload.Config{
			TotalTasks: 120 + r.Intn(180),
			Window:     pmf.Tick(700 + r.Intn(2000)),
			GammaSlack: 0.5 + 3*r.Float64(),
		}, int64(i))

		warm := New(m, tr, fifoMapper{}, mk(), cfg)
		coldCfg := cfg
		coldCfg.ColdChains = true
		cold := New(m, tr, fifoMapper{}, mk(), coldCfg)
		requireSameRun(t, "sweep case", warm, cold, (*Engine).Run)
	}
}

// churnScript drives one deterministic open-engine run: tasks fed in
// order with a seeded schedule of membership operations (remove with and
// without handoff, revive, add) interleaved between feeds. Both engines
// receive the identical script; ops are chosen against a local membership
// model so they are always legal on both.
func churnScript(t *testing.T, e *Engine, tasks []workload.Task, seed int64, machines int) *Result {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	removed := make([]bool, machines)
	nRemoved := 0
	for i := range tasks {
		e.Feed(&tasks[i])
		if i%7 != 6 {
			continue
		}
		switch r.Intn(4) {
		case 0, 1: // remove a live machine, keeping at least one alive
			if machines-nRemoved > 1 {
				j := r.Intn(machines)
				for removed[j] {
					j = (j + 1) % machines
				}
				if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: j, Handoff: r.Intn(2) == 0}, nil); err != nil {
					t.Fatalf("remove %d: %v", j, err)
				}
				removed[j], nRemoved = true, nRemoved+1
			}
		case 2: // revive a removed machine
			if nRemoved > 0 {
				j := r.Intn(machines)
				for !removed[j] {
					j = (j + 1) % machines
				}
				if err := e.ApplyMember(MemberOp{Kind: MemberRevive, Machine: j}, nil); err != nil {
					t.Fatalf("revive %d: %v", j, err)
				}
				removed[j], nRemoved = false, nRemoved-1
			}
		case 3: // grow the cluster (added machines are never removed here)
			if err := e.ApplyMember(MemberOp{Kind: MemberAdd, Type: 0}, nil); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
	}
	return e.Drain()
}

// TestWarmVsColdChurnDifferential runs the open engine through runtime
// membership churn — removals (handoff and force-drop), revivals,
// additions — warm and cold. Churn invalidations flow through
// ChainCache.Invalidate(InvalidateChurn), so this pins the lifecycle
// transitions the root signature cannot see.
func TestWarmVsColdChurnDifferential(t *testing.T) {
	const machines = 4
	for _, dropper := range []func() core.Policy{
		func() core.Policy { return core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta} },
		func() core.Policy { return core.Threshold{Base: core.DefaultThresholdBase, Adaptive: true} },
	} {
		m := testMatrix(t, machines, pmf.Delta(10), pmf.Delta(25))
		tasks := randomOpenTasks(160, 7)
		for i := range tasks {
			if i%3 == 0 {
				tasks[i].Type = 1
				tasks[i].ExecByType = []pmf.Tick{0, tasks[i].ExecByType[0]}
			} else {
				tasks[i].ExecByType = []pmf.Tick{tasks[i].ExecByType[0], 0}
			}
		}
		warm := NewOpen(m, fifoMapper{}, dropper(), cfgNoExclusion())
		coldCfg := cfgNoExclusion()
		coldCfg.ColdChains = true
		cold := NewOpen(m, fifoMapper{}, dropper(), coldCfg)
		requireSameRun(t, "churn", warm, cold, func(e *Engine) *Result {
			return churnScript(t, e, tasks, 1234, machines)
		})
		if warm.Calc().Stats().InvalidationsChurn == 0 {
			t.Fatal("churn script produced no churn invalidations — differential is vacuous")
		}
	}
}

// TestWarmVsColdClusterApplyChurn is the cluster-level differential: a
// sharded cluster fed a generated trace with a GenerateChurn plan applied
// through Cluster.ApplyChurn at arrival boundaries (the scenario driver's
// discipline) must route, decide and drain identically warm and cold.
func TestWarmVsColdClusterApplyChurn(t *testing.T) {
	m, tr := clusterTestSystem(t, 400, 5)
	window := tr.Cfg.Window
	plan := GenerateChurn(len(m.Machines()), window, ChurnConfig{
		MeanInterval: window / 6,
		MeanDown:     window / 10,
		Seed:         3,
	})
	if len(plan) == 0 {
		t.Fatal("setup: empty churn plan")
	}
	run := func(cold bool) ([]int, *Result, *Cluster) {
		cfg := Config{QueueCap: 6, ColdChains: cold}
		pol, err := router.FromSpec("rr")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(m, 2, pol, pamHeuristic(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		routes := make([]int, len(tr.Tasks))
		next := 0
		for i := range tr.Tasks {
			for next < len(plan) && plan[next].At <= tr.Tasks[i].Arrival {
				if err := cl.ApplyChurn(plan[next]); err != nil {
					t.Fatalf("churn event %d: %v", next, err)
				}
				next++
			}
			routes[i], _ = cl.Feed(&tr.Tasks[i])
		}
		return routes, cl.Drain(), cl
	}
	warmRoutes, rw, warmCl := run(false)
	coldRoutes, rc, _ := run(true)
	if *rw != *rc {
		t.Fatalf("cluster results diverge:\nwarm %+v\ncold %+v", rw, rc)
	}
	for i := range warmRoutes {
		if warmRoutes[i] != coldRoutes[i] {
			t.Fatalf("task %d routed to shard %d warm, %d cold", i, warmRoutes[i], coldRoutes[i])
		}
	}
	var churnInv, rootHits uint64
	for _, eng := range warmCl.Shards() {
		st := eng.Calc().Stats()
		churnInv += st.InvalidationsChurn
		rootHits += st.RootHits
	}
	if churnInv == 0 {
		t.Fatal("plan applied but no churn invalidations recorded")
	}
	if rootHits == 0 {
		t.Fatal("warm cluster never reused a cached root")
	}
}

// FuzzWarmVsColdFeed derives an arbitrary feed schedule (arrival gaps,
// slacks, execution times, occasional machine churn) from the fuzz input
// and requires warm and cold engines to agree on every admission outcome
// and the final result.
func FuzzWarmVsColdFeed(f *testing.F) {
	f.Add([]byte{3, 40, 9, 0, 12, 200, 30, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{250, 1, 99, 33, 128, 64, 32, 16, 8, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		const machines = 3
		m := testMatrix(t, machines, pmf.Delta(10))
		run := func(cold bool) (*Recorder, *Result) {
			cfg := cfgNoExclusion()
			cfg.QueueCap = 2 + int(data[0])%4
			cfg.ColdChains = cold
			e := NewOpen(m, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg)
			rec := Record(e)
			clock, id := pmf.Tick(0), 0
			removed := false
			for i := 1; i+2 < len(data) && id < 120; i += 3 {
				clock += pmf.Tick(data[i] % 16)
				task := workload.Task{
					ID:         id,
					Type:       0,
					Arrival:    clock,
					Deadline:   clock + 1 + pmf.Tick(data[i+1]%80),
					ExecByType: []pmf.Tick{1 + pmf.Tick(data[i+2]%24)},
				}
				e.Feed(&task)
				id++
				// Byte-steered churn: toggle machine 1 in and out.
				switch data[i] % 11 {
				case 9:
					if !removed {
						if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 1, Handoff: data[i+1]%2 == 0}, nil); err != nil {
							t.Fatal(err)
						}
						removed = true
					}
				case 10:
					if removed {
						if err := e.ApplyMember(MemberOp{Kind: MemberRevive, Machine: 1}, nil); err != nil {
							t.Fatal(err)
						}
						removed = false
					}
				}
			}
			return rec, e.Drain()
		}
		warm, rw := run(false)
		cold, rc := run(true)
		if *rw != *rc {
			t.Fatalf("results diverge:\nwarm %+v\ncold %+v", rw, rc)
		}
		tw, tc := warm.TaskStates(), cold.TaskStates()
		for i := range tw {
			a, b := tw[i], tc[i]
			if a.Status != b.Status || a.Start != b.Start || a.Finish != b.Finish || a.Machine != b.Machine {
				t.Fatalf("task %d diverges: warm %v@%d cold %v@%d", a.Task.ID, a.Status, a.Machine, b.Status, b.Machine)
			}
		}
	})
}
