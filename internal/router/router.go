// Package router implements the shard-routing layer of the clustered
// admission architecture: given N independent shard engines (each owning a
// disjoint subset of the machines, see sim.PartitionMachines), a routing
// policy picks the shard every arriving task is admitted through.
//
// Probabilistic pruning is shard-local by construction — a task's
// completion-time PMF (Eq. 1) depends only on the queues of the machines
// it may run on — so routing a task to a shard and running the paper's
// calculus inside that shard preserves the dropping semantics exactly
// while the shards advance independently.
//
// # Concurrency model
//
// Policies are consulted by a lock-free front-end: many goroutines may
// call Route concurrently while shard decision loops publish their state
// through ShardView atomics. No built-in policy has state of its own: a
// route is a function of the task — its sequence number included, which
// is where rr and p2c read their position — the policy's seed and the
// published views, so a restarted process that restores its sequence
// counter resumes routing where it stopped. The route hot path is budgeted
// at ≤ 2 allocations (all built-in policies allocate zero); CI asserts the
// budget.
//
// All three policies route in-process shards (service.Controller, the
// offline sim.Cluster). The cross-process router tier (internal/front)
// accepts ClassHash only: its views carry nothing but the down bit, so a
// backend's robustness stays inside the backend. In-process views carry
// the down bit and the per-class robustness EWMA p2c ranks by; a shard's
// load is in its /v1/stats census, not in the view.
//
// Policies resolve through the same parameterized spec grammar as
// mappers, droppers and profiles (internal/spec):
//
//	rr                          round-robin (aliases roundrobin, round-robin)
//	p2c[:seed=<int64>]          power-of-two-choices over per-class
//	                            robustness estimates (aliases poweroftwo,
//	                            power-of-two)
//	hash[:seed=<int64>]         task class partitioning: every task of one
//	                            class lands on the same shard (aliases
//	                            class, class-hash)
package router

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/spec"
)

// EWMAAlpha is the smoothing factor of the per-class robustness estimate:
// each admission folds its observed chance of success into the running
// estimate as new = (1-α)·old + α·observed. 1/8 forgets roughly the last
// twenty decisions — fast enough to track load swings, slow enough not to
// thrash on one unlucky placement.
const EWMAAlpha = 0.125

// Task is the router's view of one arriving task: just enough to pick a
// shard, nothing that would require parsing the full wire spec on the hot
// path.
type Task struct {
	// Seq is the task's position in the caller's arrival order — the
	// controller's cluster-wide sequence number, the offline trace's task
	// ID. rr and p2c derive their choice from it and keep no cursor.
	Seq int64
	// Class is the task's PET row (task type).
	Class int
	// Arrival and Deadline are the task's absolute ticks.
	Arrival  pmf.Tick
	Deadline pmf.Tick
}

// ShardView is the router-visible state of one shard, published lock-free:
// the shard's single-writer decision loop stores into the atomics, and any
// number of front-end goroutines read them when routing. It carries the two
// signals the built-in policies consume — whether the shard can admit at
// all, and a per-task-class EWMA of the on-time probability the shard
// recently delivered at admission. Load is not mirrored: no policy routes
// on it.
type ShardView struct {
	// down marks a shard that cannot currently admit anything — every
	// machine removed, or its backend unreachable. Policies steer around
	// down views and only land on one when every view is down.
	down atomic.Bool

	// robustness[class] holds math.Float64bits of the per-class EWMA.
	robustness []atomic.Uint64
}

// NewShardView builds a view for a shard serving numClasses task types.
// Robustness estimates start optimistic (1.0) so cold shards attract work
// until real observations arrive.
func NewShardView(numClasses int) *ShardView {
	v := &ShardView{robustness: make([]atomic.Uint64, numClasses)}
	one := math.Float64bits(1.0)
	for i := range v.robustness {
		v.robustness[i].Store(one)
	}
	return v
}

// SetDown publishes whether the shard is unable to admit work (degraded to
// zero live machines, or its backend gone) and returns the bit it replaced,
// so a writer can act on transitions only. Any goroutine may read
// concurrently.
func (v *ShardView) SetDown(down bool) (was bool) { return v.down.Swap(down) }

// Down reports whether the shard is currently marked unable to admit work.
func (v *ShardView) Down() bool { return v.down.Load() }

// ObserveAdmission folds one admission outcome for a task of the given
// class into the per-class robustness EWMA: p is the chance of success the
// shard gave the task at admission (0 for a deferred or dropped task).
// Single writer: the shard's decision loop.
func (v *ShardView) ObserveAdmission(class int, p float64) {
	if class < 0 || class >= len(v.robustness) {
		return
	}
	old := math.Float64frombits(v.robustness[class].Load())
	next := (1-EWMAAlpha)*old + EWMAAlpha*p
	// Clamp accumulated rounding drift: estimates are probabilities.
	next = math.Max(0, math.Min(1, next))
	v.robustness[class].Store(math.Float64bits(next))
}

// SetClassRobustness overwrites one class's robustness estimate — the
// recovery path restoring a persisted EWMA after a restart. Single writer:
// the shard's decision loop (or its constructor, before the loop starts).
func (v *ShardView) SetClassRobustness(class int, p float64) {
	if class < 0 || class >= len(v.robustness) {
		return
	}
	v.robustness[class].Store(math.Float64bits(math.Max(0, math.Min(1, p))))
}

// ClassRobustness returns the shard's current expected on-time probability
// for the given task class (1.0 before any observation, or for an unknown
// class).
func (v *ShardView) ClassRobustness(class int) float64 {
	if class < 0 || class >= len(v.robustness) {
		return 1.0
	}
	return math.Float64frombits(v.robustness[class].Load())
}

// Policy picks the shard an arriving task is admitted through. Route is
// called concurrently by the front-end and must not block or allocate more
// than the documented budget (≤ 2 allocs; built-ins allocate zero). The
// returned index must lie in [0, len(views)).
type Policy interface {
	// Name identifies the policy in logs and experiment tables.
	Name() string
	// Route picks a shard for task t given the published shard views.
	Route(t Task, views []*ShardView) int
}

// RoundRobin cycles through the shards in order, ignoring their state —
// the zero-information baseline: task Seq goes to shard Seq mod n.
type RoundRobin struct{}

// NewRoundRobin returns a round-robin policy.
func NewRoundRobin() RoundRobin { return RoundRobin{} }

// Name implements Policy.
func (RoundRobin) Name() string { return "rr" }

// Route implements Policy.
func (RoundRobin) Route(t Task, views []*ShardView) int {
	base := uint64(t.Seq)
	n := uint64(len(views))
	// Walk forward past down shards; with nothing down this is exactly
	// Seq mod n. When everything is down, land on that shard.
	for k := uint64(0); k < n; k++ {
		i := int((base + k) % n)
		if !views[i].Down() {
			return i
		}
	}
	return int(base % n)
}

// PowerOfTwo samples two distinct shards and admits through the one whose
// robustness estimate for the task's class — the expected on-time
// probability the shard has recently delivered to that class — is higher,
// breaking ties toward the lower index. Two choices give most of the
// benefit of a full scan at O(1) cost, and the sampling keeps a
// persistently-misestimated shard from starving (Mitzenmacher's power of
// two choices, applied to robustness instead of queue length).
//
// The RNG is a counter-based splitmix64 whose counter is the task's
// sequence number, so a fixed seed makes a request stream's routing
// reproducible from any point in it.
type PowerOfTwo struct {
	seed uint64
}

// NewPowerOfTwo returns a power-of-two-choices policy seeded for
// reproducible routing.
func NewPowerOfTwo(seed int64) PowerOfTwo { return PowerOfTwo{seed: uint64(seed)} }

// Name implements Policy.
func (PowerOfTwo) Name() string { return "p2c" }

// rand64 is draw seq of the seed's splitmix64 stream.
func (p PowerOfTwo) rand64(seq int64) uint64 {
	x := p.seed + (uint64(seq)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Route implements Policy.
func (p PowerOfTwo) Route(t Task, views []*ShardView) int {
	n := uint64(len(views))
	if n == 1 {
		return 0
	}
	r := p.rand64(t.Seq)
	i := int(r % n)
	j := int((r >> 32) % (n - 1))
	if j >= i {
		j++ // distinct second choice, uniform over the rest
	}
	// A down shard loses to any live one; if both picks are down, fall back
	// to the first live shard so churn never routes into a dead end.
	if views[i].Down() || views[j].Down() {
		switch {
		case views[j].Down() && !views[i].Down():
			return i
		case views[i].Down() && !views[j].Down():
			return j
		default:
			for k := 0; k < int(n); k++ {
				if !views[k].Down() {
					return k
				}
			}
		}
	}
	if better(t, views, j, i) {
		return j
	}
	return i
}

// ClassHash partitions the task classes across the shards: every task of
// one class always routes to the same shard (splitmix64 of the class,
// seeded, modulo the shard count). It is the one policy the cross-process
// router tier accepts: with task classes as partition keys, each backend
// sees a stable workload mix, a route is a pure function of the task's
// class and which views are down, and a retry splits the way its original
// did.
type ClassHash struct {
	seed uint64
}

// NewClassHash returns a class-partitioning policy. Different seeds pick
// different (still deterministic) class→shard assignments.
func NewClassHash(seed int64) ClassHash { return ClassHash{seed: uint64(seed)} }

// Name implements Policy.
func (ClassHash) Name() string { return "hash" }

// Route implements Policy.
func (p ClassHash) Route(t Task, views []*ShardView) int {
	x := (uint64(t.Class)+p.seed+1)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	n := uint64(len(views))
	home := int(x % n)
	// A class whose home shard is down spills to the next live shard so its
	// traffic sheds somewhere useful; the partition is restored the moment
	// the home shard comes back.
	for k := uint64(0); k < n; k++ {
		i := int((uint64(home) + k) % n)
		if !views[i].Down() {
			return i
		}
	}
	return home
}

// better reports whether shard a beats shard b for task t: higher
// robustness estimate for the class, then lower index.
func better(t Task, views []*ShardView, a, b int) bool {
	ra, rb := views[a].ClassRobustness(t.Class), views[b].ClassRobustness(t.Class)
	if ra != rb {
		return ra > rb
	}
	return a < b
}

// FromSpec resolves a routing-policy spec (see the package comment for the
// grammar). Policies are immutable values: two built from one spec route
// the same Task over the same views identically.
func FromSpec(s string) (Policy, error) {
	name, params, err := spec.Parse(s)
	if err != nil {
		return nil, err
	}
	var p Policy
	switch name {
	case "rr", "roundrobin", "round-robin":
		p = NewRoundRobin()
	case "p2c", "poweroftwo", "power-of-two":
		p = NewPowerOfTwo(params.Int64("seed", 1))
	case "hash", "class", "class-hash":
		p = NewClassHash(params.Int64("seed", 1))
	default:
		return nil, fmt.Errorf("router: unknown routing policy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	if err := params.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// Names lists the canonical routing-policy names.
func Names() []string {
	out := []string{"rr", "p2c", "hash"}
	sort.Strings(out)
	return out
}
