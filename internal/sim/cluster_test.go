package sim

import (
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// pamLike maps each batch task (in arrival order) to the free-slot machine
// maximizing its chance of success — the shape of the paper's PAM, local to
// this package so cluster tests exercise the calculus without importing
// internal/mapping (which would cycle).
type pamLike struct{}

func (pamLike) Name() string { return "testPAM" }

func (pamLike) Map(ev *MappingEvent) {
	for len(ev.Batch()) > 0 {
		ts := ev.Batch()[0]
		var best *Machine
		bestP := -1.0
		for _, m := range ev.Machines() {
			if ev.FreeSlots(m) <= 0 {
				continue
			}
			if p := ev.CandidateCompletion(ts, m).MassBefore(ts.Task.Deadline); p > bestP {
				best, bestP = m, p
			}
		}
		if best == nil {
			return
		}
		ev.Assign(ts, best)
	}
}

// clusterTestSystem returns the cached video matrix and a small
// oversubscribed trace that exercises every decision path.
func clusterTestSystem(t testing.TB, tasks int, seed int64) (*pet.Matrix, *workload.Trace) {
	t.Helper()
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack}
	return m, workload.Generate(m, cfg.Scaled(float64(tasks)/30000), seed)
}

// pamHeuristic is a ShardBuilder supplying the test mapper and the paper's
// tuned dropping heuristic fresh per shard.
func pamHeuristic(t testing.TB) ShardBuilder {
	t.Helper()
	return func(int) (Mapper, core.Policy, error) {
		return pamLike{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, nil
	}
}

func runCluster(t testing.TB, m *pet.Matrix, tr *workload.Trace, shards int, pol router.Policy, cfg Config) ([]int, *Result) {
	t.Helper()
	cl, err := NewCluster(m, shards, pol, pamHeuristic(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	routes := make([]int, len(tr.Tasks))
	for i := range tr.Tasks {
		routes[i], _ = cl.Feed(&tr.Tasks[i])
	}
	return routes, cl.Drain()
}

func TestPartitionMachinesCoversDisjointly(t *testing.T) {
	m, _ := clusterTestSystem(t, 10, 1)
	all := m.Machines()
	for _, n := range []int{1, 2, 3, len(all)} {
		parts, global := PartitionMachines(m, n)
		seen := make(map[int]bool)
		for s := range parts {
			if len(parts[s]) != len(global[s]) {
				t.Fatalf("n=%d shard %d: %d specs vs %d global indexes", n, s, len(parts[s]), len(global[s]))
			}
			for l, spec := range parts[s] {
				if spec.Index != l {
					t.Fatalf("n=%d shard %d local %d has index %d", n, s, l, spec.Index)
				}
				g := global[s][l]
				if seen[g] {
					t.Fatalf("n=%d machine %d dealt twice", n, g)
				}
				seen[g] = true
				want := all[g]
				if spec.Name != want.Name || spec.Type != want.Type || spec.PriceHour != want.PriceHour {
					t.Fatalf("n=%d shard %d local %d: spec %+v does not match global %+v", n, s, l, spec, want)
				}
			}
		}
		if len(seen) != len(all) {
			t.Fatalf("n=%d covered %d of %d machines", n, len(seen), len(all))
		}
		// Balance: shard sizes differ by at most one.
		lo, hi := len(parts[0]), len(parts[0])
		for _, p := range parts {
			lo, hi = min(lo, len(p)), max(hi, len(p))
		}
		if hi-lo > 1 {
			t.Fatalf("n=%d unbalanced partition: min %d, max %d", n, lo, hi)
		}
	}
}

// TestOneShardClusterMatchesEngine is the determinism guard of the
// sharded architecture: a 1-shard Cluster must be bit-identical — same
// Result, same per-machine assignment of every task — to the classic
// trace-driven Engine on the same (matrix, trace, mapper, dropper,
// config).
func TestOneShardClusterMatchesEngine(t *testing.T) {
	m, tr := clusterTestSystem(t, 500, 3)
	cfg := Config{QueueCap: 6, BoundaryExclusion: 50}

	cl, err := NewCluster(m, 1, nil, pamHeuristic(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The engine reuses a settled task's state, so the per-task records
	// come from a recorder, as the reference's do.
	crec := Record(cl.Shards()[0])
	for i := range tr.Tasks {
		if s, _ := cl.Feed(&tr.Tasks[i]); s != 0 {
			t.Fatalf("1-shard cluster routed task %d to shard %d", i, s)
		}
	}
	got := cl.Drain()

	want := New(m, tr, pamLike{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()
	if *got != *want {
		t.Fatalf("1-shard cluster Result = %+v\nwant (engine)        %+v", got, want)
	}
	// Per-task states match the engine's too, machine for machine.
	ref := New(m, tr, pamLike{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg)
	rec := Record(ref)
	ref.Run()
	states := crec.TaskStates()
	for i, rs := range rec.TaskStates() {
		cs := states[i]
		if cs.Status != rs.Status || cs.Machine != rs.Machine || cs.Start != rs.Start || cs.Finish != rs.Finish {
			t.Fatalf("task %d diverged: cluster %+v vs engine %+v", i, cs, rs)
		}
	}
}

// TestClusterReproducible: for a fixed (trace, shard count, routing
// policy, seeds), two cluster runs route identically and land on the
// identical merged Result — the K-shard determinism contract.
func TestClusterReproducible(t *testing.T) {
	m, tr := clusterTestSystem(t, 500, 5)
	cfg := Config{QueueCap: 6}
	for _, spec := range []string{"rr", "p2c:seed=11"} {
		polA, err := router.FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		polB, _ := router.FromSpec(spec)
		routesA, resA := runCluster(t, m, tr, 4, polA, cfg)
		routesB, resB := runCluster(t, m, tr, 4, polB, cfg)
		for i := range routesA {
			if routesA[i] != routesB[i] {
				t.Fatalf("%s: task %d routed to %d then %d", spec, i, routesA[i], routesB[i])
			}
		}
		if *resA != *resB {
			t.Fatalf("%s: results diverged:\n%+v\n%+v", spec, resA, resB)
		}
		if err := resA.Validate(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if resA.Total != tr.Len() {
			t.Fatalf("%s: merged total %d, want %d", spec, resA.Total, tr.Len())
		}
		// Every shard must have seen work on an oversubscribed trace.
		seen := make(map[int]int)
		for _, s := range routesA {
			seen[s]++
		}
		if len(seen) != 4 {
			t.Fatalf("%s: only %d of 4 shards used: %v", spec, len(seen), seen)
		}
	}
}

// TestClusterRobustnessTracksOffline: sharding changes the mapper's view
// (shard-local candidates), so robustness shifts, but a 4-shard cluster
// on an oversubscribed trace must stay in the same regime as the
// unsharded engine — this is the offline version of the CI shard-matrix
// tolerance check.
func TestClusterRobustnessTracksOffline(t *testing.T) {
	m, tr := clusterTestSystem(t, 1000, 7)
	cfg := Config{QueueCap: 6}
	offline := New(m, tr, pamLike{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, cfg).Run()

	pol, _ := router.FromSpec("p2c:seed=1")
	_, sharded := runCluster(t, m, tr, 4, pol, cfg)
	diff := sharded.RobustnessPct - offline.RobustnessPct
	if diff < -20 || diff > 20 {
		t.Fatalf("4-shard robustness %.2f%% vs offline %.2f%%: drifted out of regime", sharded.RobustnessPct, offline.RobustnessPct)
	}
}

func TestMergeResults(t *testing.T) {
	a := &Result{Total: 10, Measured: 8, OnTime: 6, Late: 2, DroppedReactive: 1, DroppedProactive: 1,
		MOnTime: 5, MLate: 1, MDroppedReactive: 1, MDroppedProactive: 1,
		RobustnessPct: 62.5, UtilityPct: 70, TotalCostUSD: 1.0, Makespan: 100, BusyTicks: 50}
	b := &Result{Total: 6, Measured: 4, OnTime: 2, Late: 2, DroppedReactive: 1, DroppedProactive: 1,
		MOnTime: 1, MLate: 1, MDroppedReactive: 1, MDroppedProactive: 1,
		RobustnessPct: 25, UtilityPct: 40, TotalCostUSD: 0.5, Makespan: 200, BusyTicks: 30}

	if got := MergeResults([]*Result{a}, 8); got != a {
		t.Fatal("single-part merge must be the identity")
	}
	got := MergeResults([]*Result{a, b}, 4)
	if got.Total != 16 || got.Measured != 12 || got.MOnTime != 6 || got.Makespan != 200 || got.BusyTicks != 80 {
		t.Fatalf("merged counts wrong: %+v", got)
	}
	if want := 100 * 6.0 / 12.0; got.RobustnessPct != want {
		t.Fatalf("merged robustness %v, want %v", got.RobustnessPct, want)
	}
	if want := (70*8.0 + 40*4.0) / 12.0; got.UtilityPct != want {
		t.Fatalf("merged utility %v, want %v", got.UtilityPct, want)
	}
	if want := 1.5 / got.RobustnessPct; got.CostPerRobustness != want {
		t.Fatalf("merged cost/robustness %v, want %v", got.CostPerRobustness, want)
	}
	if want := 100 * 80.0 / (200.0 * 4.0); got.UtilizationPct != want {
		t.Fatalf("merged utilization %v, want %v", got.UtilizationPct, want)
	}
}

// TestShardViewPublishing: a view carries the down bit and the per-class
// EWMA and nothing else. Each admission folds exactly the task's forecast
// chance of success into its class's estimate, and the down bit follows
// membership: set when a shard loses its last machine, cleared on revive.
func TestShardViewPublishing(t *testing.T) {
	m, tr := clusterTestSystem(t, 200, 2)
	pol, _ := router.FromSpec("p2c")
	cl, err := NewCluster(m, 2, pol, pamHeuristic(t), Config{QueueCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	// shadow[s] folds what ObserveDecision must have folded into view s.
	shadow := []*router.ShardView{router.NewShardView(m.NumTaskTypes()), router.NewShardView(m.NumTaskTypes())}
	sawDegraded := false
	feed := func(i int) {
		s, ts := cl.Feed(&tr.Tasks[i])
		eng, v := cl.Shards()[s], cl.View(s)
		shadow[s].ObserveAdmission(int(ts.Task.Type), eng.QueuedSuccessProbability(ts))
		for class := 0; class < m.NumTaskTypes(); class++ {
			r := v.ClassRobustness(class)
			if want := shadow[s].ClassRobustness(class); r != want {
				t.Fatalf("task %d shard %d class %d: estimate %v, want %v", i, s, class, r, want)
			}
			if r < 1 {
				sawDegraded = true
			}
		}
		if v.Down() {
			t.Fatalf("task %d: shard %d with %d live machines published down", i, s, eng.LiveMachines())
		}
	}
	half := len(tr.Tasks) / 2
	for i := 0; i < half; i++ {
		feed(i)
	}
	if !sawDegraded {
		t.Fatal("oversubscribed run never moved a robustness estimate below 1.0")
	}

	// Shard 1 loses every machine: down, and routing steers around it.
	at := tr.Tasks[half].Arrival
	owned := len(cl.Shards()[1].Machines())
	for l := 0; l < owned; l++ {
		if cl.View(1).Down() {
			t.Fatalf("shard 1 down with %d of %d machines removed", l, owned)
		}
		if err := cl.ApplyChurn(ChurnEvent{At: at, MemberOp: MemberOp{Kind: MemberRemove, Machine: cl.Global(1, l)}}); err != nil {
			t.Fatal(err)
		}
	}
	if !cl.View(1).Down() {
		t.Fatal("shard 1 with no live machine not published down")
	}
	if s := cl.Route(int64(half), tr.Tasks[half].Type, at, tr.Tasks[half].Deadline); s != 0 {
		t.Fatalf("routed to down shard %d", s)
	}
	if err := cl.ApplyChurn(ChurnEvent{At: at, MemberOp: MemberOp{Kind: MemberRevive, Machine: cl.Global(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	if cl.View(1).Down() {
		t.Fatal("shard 1 still down after a revive")
	}
	for i := half; i < len(tr.Tasks); i++ {
		feed(i)
	}
	res := cl.Drain()
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}
