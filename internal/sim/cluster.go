package sim

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// PartitionMachines deals the matrix's physical machines round-robin into
// n shards: global machine i goes to shard i mod n. Because the flattened
// machine list is grouped by type, the deal spreads every machine type as
// evenly across shards as the counts allow, so each shard remains a
// heterogeneous mini-cluster. It returns the per-shard machine specs
// re-indexed to shard-local positions, plus the local→global index
// translation (global[s][local] is the matrix-wide machine index).
//
// The partition is deterministic, covering and disjoint; with n = 1 it is
// the identity, which is what makes a 1-shard cluster bit-identical to
// the unsharded engine.
func PartitionMachines(m *pet.Matrix, n int) (shards [][]pet.MachineSpec, global [][]int) {
	all := m.Machines()
	return PartitionSpecs(all, identity(len(all)), n)
}

// identity returns the index translation of a set that is the whole
// matrix: 0..n-1.
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// PartitionSpecs deals an arbitrary machine subset round-robin into n
// shards — PartitionMachines' deal, over a slice that may itself already be
// a partition of the matrix (a multi-process deployment gives each server
// one PartitionMachines part and sub-shards it locally).
// global[i] must be machines[i]'s matrix-wide index; the returned globals
// compose the two translations, so globals[s][local] is still matrix-wide.
func PartitionSpecs(machines []pet.MachineSpec, global []int, n int) (shards [][]pet.MachineSpec, globals [][]int) {
	if n < 1 || n > len(machines) {
		panic(fmt.Sprintf("sim: %d shards for %d machines, want 1..%d", n, len(machines), len(machines)))
	}
	if len(global) != len(machines) {
		panic(fmt.Sprintf("sim: %d machines with %d global indexes", len(machines), len(global)))
	}
	shards = make([][]pet.MachineSpec, n)
	globals = make([][]int, n)
	for i, spec := range machines {
		s := i % n
		spec.Index = len(shards[s]) // shard-local position
		shards[s] = append(shards[s], spec)
		globals[s] = append(globals[s], global[i])
	}
	return shards, globals
}

// NewOpenShard builds a caller-fed engine (see NewOpen) owning only the
// given machine subset of the matrix — one shard of a Cluster. The engine
// runs the full event pipeline of the simulator over its machines alone;
// because a task's completion-time PMF depends only on the queues of the
// machines it may run on, the calculus inside a shard is exactly the
// paper's calculus on a smaller system. Specs are re-indexed to local
// positions; callers that need matrix-wide indexes keep the translation
// (see PartitionMachines).
func NewOpenShard(m *pet.Matrix, machines []pet.MachineSpec, mapper Mapper, dropper core.Policy, cfg Config) *Engine {
	local := make([]pet.MachineSpec, len(machines))
	copy(local, machines)
	for i := range local {
		local[i].Index = i
	}
	return newEngineWith(m, local, mapper, dropper, cfg)
}

// QueuedSuccessProbability returns the chance of success (Eq. 2) the
// engine currently forecasts for an admitted task: the mass of its
// completion-time PMF (Eq. 1 chained over its machine's queue up to the
// task) before its deadline. It is 0 for tasks that are not queued or
// running. Calling it right after Feed is cheap: the mapping event that
// placed the task evaluated the same chain prefixes in the same calculus
// epoch, so the walk is trie lookups, not convolutions.
func (e *Engine) QueuedSuccessProbability(ts *TaskState) float64 {
	if ts.Status != StatusQueued && ts.Status != StatusRunning {
		return 0
	}
	m := e.machines[ts.Machine]
	q := m.coreQueue(e.clock)
	s, start := e.calc.ChainStartCached(m.cache, m.Type(), e.clock, q)
	if start == 1 && m.queue[0] == ts {
		return s.PMF().MassBefore(ts.Task.Deadline)
	}
	for i := start; i < len(q); i++ {
		s = s.AppendTask(q[i])
		if m.queue[i] == ts {
			return s.PMF().MassBefore(ts.Task.Deadline)
		}
	}
	return 0
}

// CoreQueue returns machine i's queue as the calculus' view at the
// engine's current clock (running head marked with its elapsed time) —
// what the dropper and mapper saw at the last event. The slice aliases the
// machine's reusable buffer: valid until the engine next advances. Audit
// tooling (cmd/hcreplay) uses it to re-derive Eq. 1 forecasts offline.
func (e *Engine) CoreQueue(i int) []core.QueueTask {
	return e.machines[i].coreQueue(e.clock)
}

// ObserveDecision folds one admission decision into a router view: the
// task's forecast chance of success enters the per-class robustness EWMA (0
// when the task was deferred or dropped — the shard could not give the
// class a timely slot).
func (e *Engine) ObserveDecision(v *router.ShardView, ts *TaskState) {
	v.ObserveAdmission(int(ts.Task.Type), e.QueuedSuccessProbability(ts))
}

// ShardBuilder supplies one shard's mapper and dropping policy. Shard
// engines must not share stateful components across concurrently-advancing
// loops, so the Cluster constructs each shard through this hook; builders
// typically resolve the same registry specs once per shard.
type ShardBuilder func(shard int) (Mapper, core.Policy, error)

// Cluster is a set of shard-scoped engines behind a routing policy —
// the sharded form of the admission system. The machines are partitioned
// round-robin (PartitionMachines); every arriving task is routed to one
// shard and admitted through that shard's full pipeline; shard results
// merge into one cluster Result at drain.
//
// The Cluster itself is a single-goroutine driver (Feed/Drain) used by the
// offline simulator and tests; the online service (internal/service) runs
// one single-writer loop per shard instead and uses the Cluster as the
// shared topology: partition, shard engines, router views and the
// lock-free Route helper.
type Cluster struct {
	matrix  *pet.Matrix
	engines []*Engine
	views   []*router.ShardView
	policy  router.Policy
	// part of parts is the matrix partition the cluster covers (0 of 1: the
	// whole matrix) and dealt[s] the number of its machines the deal gave
	// shard s — with the shard count, all that Global and Locate read.
	part, parts int
	dealt       []int
	// machines is the number of machines the cluster covers — the whole
	// matrix for NewCluster, one partition's worth for NewClusterOver.
	machines int
}

// NewCluster partitions the matrix's machines into n shards and builds one
// engine per shard. Per-shard configuration is derived from cfg: the
// boundary-exclusion window is split evenly across shards (each shard
// excludes BoundaryExclusion/n of its first and last tasks, keeping the
// excluded total comparable to the unsharded run), and failure seeds are
// offset by the shard index so shards fail independently. With n = 1 the
// single shard is configured exactly as cfg, machine for machine — a
// 1-shard cluster is the unsharded engine.
func NewCluster(m *pet.Matrix, n int, pol router.Policy, build ShardBuilder, cfg Config) (*Cluster, error) {
	if m == nil {
		return nil, fmt.Errorf("sim: cluster over nil matrix")
	}
	return NewClusterOver(m, 0, 1, n, pol, build, cfg)
}

// NewClusterOver builds a cluster over part k of the K parts
// PartitionMachines deals the matrix into — the multi-process form: a shard
// server owns one part and sub-shards it locally, so K servers of N shards
// each cover the matrix exactly once.
func NewClusterOver(m *pet.Matrix, k, K, n int, pol router.Policy, build ShardBuilder, cfg Config) (*Cluster, error) {
	if m == nil {
		return nil, fmt.Errorf("sim: cluster over nil matrix")
	}
	if K < 1 || K > len(m.Machines()) || k < 0 || k >= K {
		return nil, fmt.Errorf("sim: part %d of %d over %d machines", k, K, len(m.Machines()))
	}
	owned, global := PartitionMachines(m, K)
	machines := owned[k]
	if n < 1 || n > len(machines) {
		return nil, fmt.Errorf("sim: %d shards for %d machines, want 1..%d", n, len(machines), len(machines))
	}
	if pol == nil && n > 1 {
		return nil, fmt.Errorf("sim: multi-shard cluster without a routing policy")
	}
	parts, _ := PartitionSpecs(machines, global[k], n)
	cl := &Cluster{
		matrix:   m,
		engines:  make([]*Engine, n),
		views:    make([]*router.ShardView, n),
		policy:   pol,
		part:     k,
		parts:    K,
		dealt:    make([]int, n),
		machines: len(machines),
	}
	for s := 0; s < n; s++ {
		mapper, dropper, err := build(s)
		if err != nil {
			return nil, err
		}
		shardCfg := cfg
		shardCfg.BoundaryExclusion = cfg.BoundaryExclusion / n
		if shardCfg.Failures.Enabled() {
			shardCfg.Failures.Seed += int64(s)
		}
		cl.dealt[s] = len(parts[s])
		cl.engines[s] = NewOpenShard(m, parts[s], mapper, dropper, shardCfg)
		cl.views[s] = router.NewShardView(m.NumTaskTypes())
	}
	return cl, nil
}

// NumShards returns the number of shards.
func (cl *Cluster) NumShards() int { return len(cl.engines) }

// NumMachines returns the number of machines the cluster covers (the
// whole matrix unless built over a partition with NewClusterOver).
func (cl *Cluster) NumMachines() int { return cl.machines }

// Shards exposes the shard engines in shard order (read-only for callers
// that do not own the corresponding decision loop).
func (cl *Cluster) Shards() []*Engine { return cl.engines }

// View returns shard s's router-visible state.
func (cl *Cluster) View(s int) *router.ShardView { return cl.views[s] }

// Global returns the matrix-wide index of shard s's local machine l. Both
// deals are round-robin, so the index is arithmetic on what a deployment
// pins — partition, shard count, shard, local index — and needs no table:
// a dealt machine sits at position l·S+s of part k, which is matrix machine
// (l·S+s)·K+k; the machines added at runtime take the same lattice again
// past the matrix's M machines, M + ((l−n_s)·S+s)·K + k. A machine's index
// therefore never depends on the order adds reached different shards or
// processes, survives a restart, and is what one shard's journal alone
// re-derives; on one unpartitioned shard it counts M, M+1, ….
func (cl *Cluster) Global(s, l int) int {
	base := 0
	if n := cl.dealt[s]; l >= n {
		base, l = len(cl.matrix.Machines()), l-n
	}
	return base + (l*len(cl.engines)+s)*cl.parts + cl.part
}

// Locate is Global's inverse: the shard and local index a matrix-wide
// index names, ok false when another partition owns it. The local index
// may lie past the shard's last machine — the lattice has a place for
// every add yet to come — which is for the engine to refuse.
func (cl *Cluster) Locate(g int) (s, l int, ok bool) {
	m := len(cl.matrix.Machines())
	added := g >= m
	if added {
		g -= m
	}
	if g < 0 || g%cl.parts != cl.part {
		return 0, 0, false
	}
	p, S := g/cl.parts, len(cl.engines)
	s, l = p%S, p/S
	if added {
		l += cl.dealt[s]
	}
	return s, l, true
}

// ApplyChurn applies one plan event to the cluster at time ev.At
// (advancing the target shard's clock there first) and republishes the
// shard's router view so routing steers around, or back to, the changed
// capacity immediately.
func (cl *Cluster) ApplyChurn(ev ChurnEvent) error {
	s, op := ev.Shard, ev.MemberOp
	if op.Kind != MemberAdd {
		var ok bool
		if s, op.Machine, ok = cl.Locate(ev.Machine); !ok {
			return fmt.Errorf("sim: machine %d is not in this cluster", ev.Machine)
		}
	} else if s < 0 || s >= len(cl.engines) {
		return fmt.Errorf("sim: add to shard %d of %d", s, len(cl.engines))
	}
	eng := cl.engines[s]
	if ev.At > eng.Now() {
		eng.AdvanceTo(ev.At)
	}
	if err := eng.ApplyMember(op, nil); err != nil {
		return err
	}
	// A view is down while its shard has no live machine; only membership
	// changes that.
	cl.views[s].SetDown(eng.LiveMachines() == 0)
	return nil
}

// Route picks the shard the seq-th arriving task is admitted through. It
// reads only the (immutable) policy and the shard views' atomics, so any
// number of goroutines may route concurrently with the shard loops.
func (cl *Cluster) Route(seq int64, class pet.TaskType, arrival, deadline pmf.Tick) int {
	if len(cl.engines) == 1 {
		return 0
	}
	s := cl.policy.Route(router.Task{Seq: seq, Class: int(class), Arrival: arrival, Deadline: deadline}, cl.views)
	if s < 0 || s >= len(cl.engines) {
		panic(fmt.Sprintf("sim: router %q returned shard %d of %d", cl.policy.Name(), s, len(cl.engines)))
	}
	return s
}

// Feed routes one arriving task and admits it through the chosen shard's
// pipeline, returning the shard and the task's state (see Engine.Feed for
// how the state encodes the decision). Arrivals must be fed in
// non-decreasing time order. Feed is single-goroutine: it is the offline
// cluster driver; the online service feeds shard engines from per-shard
// loops instead.
func (cl *Cluster) Feed(t *workload.Task) (shard int, ts *TaskState) {
	shard = cl.Route(int64(t.ID), t.Type, t.Arrival, t.Deadline)
	eng := cl.engines[shard]
	ts = eng.Feed(t)
	// Nobody reads the view of a lone shard (Route skips the policy), so
	// skip the per-task forecast that feeds it.
	if len(cl.engines) > 1 {
		eng.ObserveDecision(cl.views[shard], ts)
	}
	return shard, ts
}

// Drain runs every shard's remaining events to completion and merges the
// shard results into the cluster Result. The cluster is not reusable
// afterwards.
func (cl *Cluster) Drain() *Result {
	parts := make([]*Result, len(cl.engines))
	for s, eng := range cl.engines {
		parts[s] = eng.Drain()
	}
	return MergeResults(parts, cl.machines)
}
