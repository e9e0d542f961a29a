package router

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

func views(n int) []*ShardView {
	out := make([]*ShardView, n)
	for i := range out {
		out[i] = NewShardView(4)
	}
	return out
}

func TestFromSpec(t *testing.T) {
	for spec, want := range map[string]string{
		"rr":          "rr",
		"RoundRobin":  "rr",
		"round-robin": "rr",
		"p2c":         "p2c",
		"p2c:seed=42": "p2c",
		"PowerOfTwo":  "p2c",
		"hash":        "hash",
		"class-hash":  "hash",
	} {
		p, err := FromSpec(spec)
		if err != nil {
			t.Fatalf("FromSpec(%q): %v", spec, err)
		}
		if p.Name() != want {
			t.Errorf("FromSpec(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "nosuch", "rr:seed=1", "p2c:sede=1", "p2c:seed=x"} {
		if _, err := FromSpec(bad); err == nil {
			t.Errorf("FromSpec(%q) accepted", bad)
		}
	}
	// Least queue mass lost to rr in every measured cell and was deleted
	// with the load mirror it read: its names are refused, naming the rest.
	for _, gone := range []string{"mass", "leastmass", "least-queue-mass", "lqm"} {
		if _, err := FromSpec(gone); err == nil || !strings.Contains(err.Error(), "(known: hash, p2c, rr)") {
			t.Errorf("FromSpec(%q): err = %v, want refused naming hash, p2c, rr", gone, err)
		}
	}
	if got := Names(); !reflect.DeepEqual(got, []string{"hash", "p2c", "rr"}) {
		t.Errorf("Names() = %v", got)
	}
}

func TestFromSpecFreshState(t *testing.T) {
	a, _ := FromSpec("rr")
	b, _ := FromSpec("rr")
	vs := views(3)
	a.Route(Task{}, vs)
	if got := b.Route(Task{}, vs); got != 0 {
		t.Fatalf("second rr instance started at %d; routing state is shared", got)
	}
}

// TestPoliciesRouteBySeq pins that rr and p2c keep no position of their
// own: a route is a function of the task's Seq, so two instances of one
// spec agree, and a policy asked about Seq 40..79 answers the same whether
// or not it was asked about 0..39 first — a restarted controller, which
// restores its sequence counter, routes on as the uninterrupted one.
func TestPoliciesRouteBySeq(t *testing.T) {
	for _, spec := range []string{"rr", "p2c:seed=5"} {
		vs := views(3)
		route := func(p Policy, lo, hi int) []int {
			var out []int
			for i := lo; i < hi; i++ {
				out = append(out, p.Route(Task{Seq: int64(i), Class: i % 4}, vs))
			}
			return out
		}
		a, _ := FromSpec(spec)
		b, _ := FromSpec(spec)
		whole := route(a, 0, 80)
		if got := route(b, 0, 80); !reflect.DeepEqual(got, whole) {
			t.Errorf("%s: two instances route one Seq stream differently:\n%v\n%v", spec, whole, got)
		}
		fresh, _ := FromSpec(spec)
		if got := route(fresh, 40, 80); !reflect.DeepEqual(got, whole[40:]) {
			t.Errorf("%s: Seq 40..79 routed %v on a fresh policy, %v after 0..39", spec, got, whole[40:])
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	p := NewRoundRobin()
	vs := views(3)
	for i := 0; i < 9; i++ {
		if got := p.Route(Task{Seq: int64(i)}, vs); got != i%3 {
			t.Fatalf("route %d = %d, want %d", i, got, i%3)
		}
	}
}

// TestPowerOfTwoTieGoesToLowerIndex: with equal robustness estimates for
// the class, p2c admits through the lower-indexed of its two picks — with
// two shards it compares both on every route, so a tie always lands on 0.
func TestPowerOfTwoTieGoesToLowerIndex(t *testing.T) {
	p := NewPowerOfTwo(11)
	vs := views(2)
	for _, v := range vs {
		v.ObserveAdmission(2, 0.5)
	}
	vs[0].ObserveAdmission(1, 0) // another class's estimate breaks no tie
	for i := 0; i < 200; i++ {
		if got := p.Route(Task{Seq: int64(i), Class: 2}, vs); got != 0 {
			t.Fatalf("task %d: tied estimates routed to shard %d, want 0", i, got)
		}
	}
}

func TestPowerOfTwoDeterministicAndPrefersRobustShard(t *testing.T) {
	mk := func() []*ShardView {
		vs := views(2)
		// Shard 0 has been failing class 2; shard 1 delivering it on time.
		for i := 0; i < 100; i++ {
			vs[0].ObserveAdmission(2, 0.05)
			vs[1].ObserveAdmission(2, 0.95)
		}
		return vs
	}
	a, b := NewPowerOfTwo(7), NewPowerOfTwo(7)
	vsA, vsB := mk(), mk()
	toOne := 0
	for i := 0; i < 200; i++ {
		ra := a.Route(Task{Class: 2}, vsA)
		rb := b.Route(Task{Class: 2}, vsB)
		if ra != rb {
			t.Fatalf("route %d diverged for equal seeds: %d vs %d", i, ra, rb)
		}
		if ra == 1 {
			toOne++
		}
	}
	// With two shards, every route compares both; the robust shard must
	// win essentially always.
	if toOne < 190 {
		t.Fatalf("p2c sent only %d/200 class-2 tasks to the robust shard", toOne)
	}
}

func TestPowerOfTwoSecondChoiceDistinct(t *testing.T) {
	// Robustness strictly increasing with shard index: the winner of any
	// pair is the max of two draws, so the distribution across 2000 routes
	// pins the sampling: shard 0 can win only if both draws landed on it —
	// impossible with distinct choices — and shard 4 wins every pair that
	// samples it (expected ≈ 2/5 of routes).
	p := NewPowerOfTwo(3)
	vs := views(5)
	for s, v := range vs {
		for i := 0; i < 100; i++ {
			v.ObserveAdmission(1, float64(s)/10)
		}
	}
	counts := make([]int, 5)
	for i := 0; i < 2000; i++ {
		counts[p.Route(Task{Seq: int64(i), Class: 1}, vs)]++
	}
	if counts[0] != 0 {
		t.Fatalf("shard 0 won %d pairs; the two choices are not distinct: %v", counts[0], counts)
	}
	for s := 1; s < 5; s++ {
		if counts[s] == 0 {
			t.Fatalf("shard %d never won a pair: %v", s, counts)
		}
	}
	if counts[4] < 600 {
		t.Fatalf("best shard won only %d/2000 (want ≈ 800): %v", counts[4], counts)
	}
}

func TestShardViewEWMA(t *testing.T) {
	v := NewShardView(2)
	if got := v.ClassRobustness(0); got != 1.0 {
		t.Fatalf("cold estimate = %v, want optimistic 1.0", got)
	}
	for i := 0; i < 400; i++ {
		v.ObserveAdmission(0, 0.25)
	}
	if got := v.ClassRobustness(0); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("converged estimate = %v, want 0.25", got)
	}
	// Out-of-range classes are ignored and read optimistic.
	v.ObserveAdmission(9, 0.0)
	if got := v.ClassRobustness(9); got != 1.0 {
		t.Fatalf("unknown class estimate = %v, want 1.0", got)
	}
	if got := v.ClassRobustness(1); got != 1.0 {
		t.Fatalf("untouched class estimate = %v, want 1.0", got)
	}
}

// maxRouteAllocs bounds the allocation count of one Route call on the
// router hot path — the front-end consults the policy for every arriving
// task, concurrently with shard loops, and must not generate garbage. The
// built-in policies allocate nothing; the budget of 2 leaves headroom for
// instrumentation without letting per-route slices creep in. CI's
// alloc-regression job runs this test.
const maxRouteAllocs = 2

func TestRouterRouteAllocsSteadyState(t *testing.T) {
	vs := views(8)
	for i, v := range vs {
		v.ObserveAdmission(1, float64(i)/8)
	}
	for _, spec := range []string{"rr", "p2c:seed=5", "hash"} {
		p, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		task := Task{Class: 1, Arrival: 100, Deadline: 900}
		p.Route(task, vs) // warm
		if avg := testing.AllocsPerRun(200, func() { p.Route(task, vs) }); avg > maxRouteAllocs {
			t.Errorf("%s: Route allocates %.1f/op, budget %d", spec, avg, maxRouteAllocs)
		}
	}
}

func TestShardViewDecayOffByDefault(t *testing.T) {
	v := NewShardView(1)
	for i := 0; i < 400; i++ {
		v.ObserveAdmission(0, 0.25)
	}
	// The estimate is clock-free and sticky — exactly the deterministic
	// offline behavior the cluster path depends on.
	if got := v.ClassRobustness(0); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("estimate = %v, want sticky 0.25", got)
	}
}

func TestPoliciesSteerAroundDownShards(t *testing.T) {
	for _, spec := range []string{"rr", "p2c:seed=3", "hash:seed=3"} {
		p, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		vs := views(4)
		vs[1].SetDown(true)
		vs[2].SetDown(true)
		for i := 0; i < 200; i++ {
			task := Task{Seq: int64(i), Class: i % 4}
			if got := p.Route(task, vs); got == 1 || got == 2 {
				t.Fatalf("%s routed task %d to down shard %d", spec, i, got)
			}
		}
		// Recovery: once back up, the shards re-enter rotation under every
		// policy.
		vs[1].SetDown(false)
		vs[2].SetDown(false)
		hit := make(map[int]bool)
		for i := 0; i < 200; i++ {
			hit[p.Route(Task{Seq: int64(i), Class: i % 4}, vs)] = true
		}
		if !hit[1] && !hit[2] {
			t.Fatalf("%s never routed to revived shards: %v", spec, hit)
		}
	}
}

func TestAllShardsDownStillRoutes(t *testing.T) {
	for _, spec := range []string{"rr", "p2c:seed=3", "hash:seed=3"} {
		p, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		vs := views(3)
		for _, v := range vs {
			v.SetDown(true)
		}
		for i := 0; i < 50; i++ {
			got := p.Route(Task{Class: i % 3}, vs)
			if got < 0 || got >= 3 {
				t.Fatalf("%s returned out-of-range shard %d with all down", spec, got)
			}
		}
	}
}

func TestClassHashDeterministicAndInRange(t *testing.T) {
	p := NewClassHash(7)
	vs := views(5)
	for class := 0; class < 64; class++ {
		first := p.Route(Task{Class: class}, vs)
		if first < 0 || first >= len(vs) {
			t.Fatalf("class %d routed to %d, outside [0,%d)", class, first, len(vs))
		}
		for i := 0; i < 10; i++ {
			if got := p.Route(Task{Class: class, Arrival: pmf.Tick(i)}, vs); got != first {
				t.Fatalf("class %d route changed: %d then %d (must be a pure function of the class)", class, first, got)
			}
		}
	}
}

func TestClassHashSpreadsClasses(t *testing.T) {
	p := NewClassHash(1)
	vs := views(4)
	counts := make([]int, 4)
	for class := 0; class < 400; class++ {
		counts[p.Route(Task{Class: class}, vs)]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no classes: %v", s, counts)
		}
	}
}

func TestClassHashSeedsDiffer(t *testing.T) {
	a, b := NewClassHash(1), NewClassHash(2)
	vs := views(8)
	same := 0
	for class := 0; class < 256; class++ {
		if a.Route(Task{Class: class}, vs) == b.Route(Task{Class: class}, vs) {
			same++
		}
	}
	if same == 256 {
		t.Fatal("seeds 1 and 2 produce identical class assignments")
	}
}
