package core

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// The paper's tuned heuristic and the adaptive threshold baseline, as the
// "heuristic" and "threshold" specs build them.
var (
	paperHeuristic = Heuristic{Beta: DefaultBeta, Eta: DefaultEta}
	paperThreshold = Threshold{Base: DefaultThresholdBase, Adaptive: true}
)

func TestReactiveOnlyNeverDrops(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}})
	ctx := &Context{
		Calc:    NewCalculus(m),
		Machine: 0,
		Now:     0,
		Queue: []QueueTask{
			{Type: 0, Deadline: 10}, // hopeless, but reactive-only won't touch it
			{Type: 0, Deadline: 20},
		},
	}
	if got := (ReactiveOnly{}).Decide(ctx); got != nil {
		t.Fatalf("ReactiveOnly dropped %v", got)
	}
}

func TestHeuristicDropsHopelessHead(t *testing.T) {
	// Task 0 (exec 100, dl 150) completes at 100 on time, but it starves
	// task 1 (exec 10, dl 30): keeping → p0=1, p1=0. Dropping task 0 →
	// task 1 completes at 10 < 30 → pDrop=1 vs β·(p0+p1)=1. Not strictly
	// greater, so NO drop (β=1 requires strict improvement).
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}, {delta(10)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 150},
		{Type: 1, Deadline: 30},
	}
	h := paperHeuristic
	if got := h.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q}); got != nil {
		t.Fatalf("tie must not drop, got %v", got)
	}

	// Now make task 0 itself doomed (dl 90 < exec 100): keeping → p0=0,
	// p1=0; dropping → p1=1 > 0 → drop index 0.
	q[0].Deadline = 90
	got := h.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q})
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("got %v, want [0]", got)
	}
}

func TestHeuristicNeverDropsRunningOrLast(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 90, Running: true, Elapsed: 5},
		{Type: 0, Deadline: 95}, // doomed but last → empty influence zone
	}
	if got := paperHeuristic.Decide(&Context{Calc: c, Machine: 0, Now: 50, Queue: q}); got != nil {
		t.Fatalf("dropped %v; running and last tasks are not candidates", got)
	}
}

func TestHeuristicLargeBetaDropsOnlyHopelessWindows(t *testing.T) {
	// Eq. 8 with a huge β can only fire when the kept window's summed
	// chance of success is (numerically) zero — dropping a task that
	// contributes nothing harms nothing. Any drop from a window with
	// positive robustness would violate β→∞ disabling proactive dropping.
	r := rand.New(rand.NewSource(51))
	h := Heuristic{Beta: 1e12, Eta: 2}
	for i := 0; i < 200; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		drops := h.Decide(&Context{Calc: c, Machine: 0, Now: now, Queue: q})
		if len(drops) == 0 {
			continue
		}
		// Every dropped task must itself have had zero chance of success.
		ps := c.SuccessProbs(0, now, q)
		for _, d := range drops {
			if ps[d] > 1e-10 {
				t.Fatalf("case %d: β→∞ dropped task %d with CoS %v", i, d, ps[d])
			}
		}
	}
}

func TestHeuristicPanicsOnBadParams(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(10)}, {delta(10)}})
	ctx := &Context{Calc: NewCalculus(m), Machine: 0, Now: 0,
		Queue: []QueueTask{{Type: 0, Deadline: 100}, {Type: 1, Deadline: 100}}}
	for _, h := range []Heuristic{{Beta: 0.5, Eta: 2}, {Beta: 1, Eta: 0}, {Beta: math.NaN(), Eta: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("heuristic %+v should panic", h)
				}
			}()
			h.Decide(ctx)
		}()
	}
}

// refHeuristic is an independent single-pass implementation of Fig. 4 /
// Eq. 8 built directly on the portable pmf operations: every keep and drop
// scenario is convolved in full. Chains truncate at deadline+grace; utility
// scores each task by expected utility over the grace window (the
// approximate-computing variant), otherwise by the chance of success.
func refHeuristic(m *pet.Matrix, mt pet.MachineType, now pmf.Tick, q []QueueTask, beta float64, eta, budget int, grace pmf.Tick, utility bool) []int {
	vgrace := pmf.Tick(0)
	if utility {
		vgrace = grace
	}
	first := 0
	var prev pmf.PMF
	if len(q) > 0 && q[0].Running {
		prev = runningAvailability(m.ExecPMF(q[0].Type, mt), q[0].Elapsed, now)
		first = 1
	} else {
		prev = pmf.Delta(now)
	}
	work := append([]QueueTask(nil), q[first:]...)
	orig := make([]int, len(work))
	for i := range orig {
		orig[i] = first + i
	}
	var drops []int
	i := 0
	chain := func(start pmf.PMF, tasks []QueueTask, n int) (float64, pmf.PMF) {
		sum := 0.0
		cur := start
		var head pmf.PMF
		for k := 0; k < n && k < len(tasks); k++ {
			cur = cur.NextCompletion(m.ExecPMF(tasks[k].Type, mt), tasks[k].Deadline+grace).Compact(budget)
			if k == 0 {
				head = cur
			}
			sum += ExpectedUtility(cur, tasks[k].Deadline, vgrace)
		}
		return sum, head
	}
	for i < len(work)-1 {
		w := eta
		if rest := len(work) - 1 - i; rest < w {
			w = rest
		}
		pKeep, headPMF := chain(prev, work[i:], w+1)
		pDrop, _ := chain(prev, work[i+1:], w)
		if pDrop > beta*pKeep {
			drops = append(drops, orig[i])
			work = append(work[:i], work[i+1:]...)
			orig = append(orig[:i], orig[i+1:]...)
			continue
		}
		prev = headPMF
		i++
	}
	return drops
}

// TestHeuristicMatchesReference holds the walk — which settles a verdict
// from the kept window alone whenever it can — to the reference that never
// does, on three kinds of queue: tight deadlines (many doomed tasks, drop
// scenarios evaluated), generous ones (tasks likely to succeed, where the
// bound fires), the heuristic under the engine's grace window, and the
// utility-driven variant with a grace window.
func TestHeuristicMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for _, v := range []struct {
		name   string
		slack  int // extra deadline slack, drawn per task from [0, slack]
		graced bool
		approx bool
	}{
		{"tight", 0, false, false},
		{"generous", 400, false, false},
		{"graced", 0, true, false},
		{"approx", 200, true, true},
	} {
		t.Run(v.name, func(t *testing.T) {
			var seen CalcStats
			for i := 0; i < 400; i++ {
				m, q, now := randomQueueCase(r)
				for k := range q {
					q[k].Deadline += pmf.Tick(r.Intn(v.slack + 1))
				}
				c := NewCalculus(m)
				beta := 1 + r.Float64()*2
				eta := 1 + r.Intn(3)
				var p Policy = Heuristic{Beta: beta, Eta: eta}
				grace := pmf.Tick(0)
				if v.graced {
					grace = 1 + pmf.Tick(r.Intn(60))
				}
				if v.approx {
					p = ApproxHeuristic{Beta: beta, Eta: eta}
				}
				got := p.Decide(&Context{Calc: c, Machine: 0, Now: now, Queue: q, Grace: grace})
				want := refHeuristic(m, 0, now, q, beta, eta, c.MaxImpulses, grace, v.approx)
				if !reflect.DeepEqual(normalizeNil(got), normalizeNil(want)) {
					t.Fatalf("case %d (β=%.2f η=%d g=%d queue=%d): got %v, want %v", i, beta, eta, grace, len(q), got, want)
				}
				seen.Add(c.Stats())
			}
			if seen.WindowsBounded == 0 || seen.WindowsEvaluated == 0 {
				t.Fatalf("verdicts: %d bounded, %d evaluated; want both kinds", seen.WindowsBounded, seen.WindowsEvaluated)
			}
		})
	}
}

// refOptimalDrops is Optimal.Decide without branch and bound: every leaf
// of the keep-first decision tree is scored, under the same tie rule, with
// chains truncated at deadline + ctx.Grace.
func refOptimalDrops(ctx *Context) []int {
	q := ctx.Queue
	first, last := droppableBounds(q)
	start, _ := ctx.ChainStart()
	cands, tail := q[first:last], q[last:]
	var (
		bestR    float64
		bestMask uint32
		bestSize = -1
	)
	var walk func(i int, prev ChainState, sum float64, mask uint32)
	walk = func(i int, prev ChainState, sum float64, mask uint32) {
		if i == len(cands) {
			for _, qt := range tail {
				prev = prev.Append(qt.Type, qt.Deadline+ctx.Grace)
				sum += prev.PMF().MassBefore(qt.Deadline)
			}
			size := bits.OnesCount32(mask)
			if bestSize < 0 || sum > bestR+1e-12 || (sum >= bestR-1e-12 && size < bestSize) {
				bestR, bestMask, bestSize = sum, mask, size
			}
			return
		}
		kept := prev.Append(cands[i].Type, cands[i].Deadline+ctx.Grace)
		walk(i+1, kept, sum+kept.PMF().MassBefore(cands[i].Deadline), mask)
		walk(i+1, prev, sum, mask|1<<i)
	}
	walk(0, start, 0, 0)
	var drops []int
	for b := range cands {
		if bestMask&(1<<b) != 0 {
			drops = append(drops, first+b)
		}
	}
	return drops
}

// TestOptimalMatchesExhaustiveDropSet: the pruned subset search must pick
// the very drop set the exhaustive one picks — not merely an equally
// robust one — on random queues, on random queues under a grace window,
// and on queues built to tie: identical tasks, all hopeless (every p = 0),
// all certain (every p = 1).
func TestOptimalMatchesExhaustiveDropSet(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	same := func(n int, dl pmf.Tick) []QueueTask {
		q := make([]QueueTask, n)
		for i := range q {
			q[i] = QueueTask{Type: 0, Deadline: dl}
		}
		return q
	}
	two := testMatrix(t, [][]pmf.PMF{{twoPoint(10, 0.5, 60)}})
	det := testMatrix(t, [][]pmf.PMF{{delta(10)}, {delta(30)}})
	type queueCase struct {
		m     *pet.Matrix
		q     []QueueTask
		now   pmf.Tick
		grace pmf.Tick
	}
	cases := []struct {
		name string
		gen  func() queueCase
	}{
		{"random", func() queueCase {
			m, q, now := randomQueueCase(r)
			return queueCase{m, q, now, 0}
		}},
		{"generous", func() queueCase {
			m, q, now := randomQueueCase(r)
			for k := range q {
				q[k].Deadline += pmf.Tick(r.Intn(400))
			}
			return queueCase{m, q, now, 0}
		}},
		{"graced", func() queueCase {
			m, q, now := randomQueueCase(r)
			return queueCase{m, q, now, 1 + pmf.Tick(r.Intn(60))}
		}},
		// Deterministic executions: every p is 0 or 1, robustness is an
		// integer, and a subtree's ceiling is often exactly the incumbent.
		{"deterministic", func() queueCase {
			q := make([]QueueTask, 3+r.Intn(4))
			for i := range q {
				q[i] = QueueTask{Type: pet.TaskType(r.Intn(2)), Deadline: pmf.Tick(5 + r.Intn(90))}
			}
			return queueCase{det, q, 0, 0}
		}},
		// Same type, same deadline, some of them bound to miss it: every
		// drop set of one size ties.
		{"identical", func() queueCase { return queueCase{two, same(2+r.Intn(5), pmf.Tick(30+r.Intn(150))), 0, 0} }},
		{"hopeless", func() queueCase { return queueCase{two, same(2+r.Intn(5), 5), 0, 0} }},
		{"certain", func() queueCase { return queueCase{two, same(2+r.Intn(5), 1000), 0, 0} }},
	}
	var seen CalcStats
	for _, tc := range cases {
		for i := 0; i < 150; i++ {
			qc := tc.gen()
			c := NewCalculus(qc.m)
			got := (Optimal{}).Decide(&Context{Calc: c, Machine: 0, Now: qc.now, Queue: qc.q, Grace: qc.grace})
			want := refOptimalDrops(&Context{Calc: NewCalculus(qc.m), Machine: 0, Now: qc.now, Queue: qc.q, Grace: qc.grace})
			if !reflect.DeepEqual(normalizeNil(got), normalizeNil(want)) {
				t.Fatalf("%s case %d (queue %v, grace %d): dropped %v, exhaustive search %v", tc.name, i, qc.q, qc.grace, got, want)
			}
			seen.Add(c.Stats())
		}
	}
	if seen.WindowsBounded == 0 || seen.WindowsEvaluated == 0 {
		t.Fatalf("subtrees pruned %d, leaves scored %d; want both", seen.WindowsBounded, seen.WindowsEvaluated)
	}
}

// refOptimalRobustness brute-forces the best achievable instantaneous
// robustness over all droppable subsets, with portable pmf operations.
func refOptimalRobustness(m *pet.Matrix, mt pet.MachineType, now pmf.Tick, q []QueueTask, budget int) float64 {
	first := 0
	var avail pmf.PMF
	if len(q) > 0 && q[0].Running {
		avail = runningAvailability(m.ExecPMF(q[0].Type, mt), q[0].Elapsed, now)
		first = 1
	} else {
		avail = pmf.Delta(now)
	}
	last := len(q) - 1
	if last < first {
		last = first
	}
	n := last - first
	best := math.Inf(-1)
	for mask := 0; mask < 1<<n; mask++ {
		prev := avail
		sum := 0.0
		for i := first; i < len(q); i++ {
			if b := i - first; b >= 0 && i < last && mask&(1<<b) != 0 {
				continue
			}
			prev = prev.NextCompletion(m.ExecPMF(q[i].Type, mt), q[i].Deadline).Compact(budget)
			sum += prev.MassBefore(q[i].Deadline)
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// applyDrops removes the given queue indexes.
func applyDrops(q []QueueTask, drops []int) []QueueTask {
	dropSet := map[int]bool{}
	for _, d := range drops {
		dropSet[d] = true
	}
	var out []QueueTask
	for i, qt := range q {
		if !dropSet[i] {
			out = append(out, qt)
		}
	}
	return out
}

// pendingRobustness evaluates Eq. 3 over the pending tasks of q.
func pendingRobustness(c *Calculus, mt pet.MachineType, now pmf.Tick, q []QueueTask) float64 {
	ps := c.SuccessProbs(mt, now, q)
	start := 0
	if len(q) > 0 && q[0].Running {
		start = 1
	}
	sum := 0.0
	for _, p := range ps[start:] {
		sum += p
	}
	return sum
}

func TestOptimalAchievesBruteForceOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		drops := (Optimal{}).Decide(&Context{Calc: c, Machine: 0, Now: now, Queue: q})
		got := pendingRobustness(c, 0, now, applyDrops(q, drops))
		want := refOptimalRobustness(m, 0, now, q, c.MaxImpulses)
		if got < want-1e-9 {
			t.Fatalf("case %d: optimal achieved %v < brute force %v (drops %v, queue %d)",
				i, got, want, drops, len(q))
		}
	}
}

func TestOptimalAtLeastHeuristic(t *testing.T) {
	// §V-F: optimal and heuristic perform nearly the same, with optimal
	// never worse in instantaneous robustness at the decision point.
	r := rand.New(rand.NewSource(54))
	h := paperHeuristic
	for i := 0; i < 200; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		ctxO := &Context{Calc: c, Machine: 0, Now: now, Queue: q}
		rOpt := pendingRobustness(c, 0, now, applyDrops(q, (Optimal{}).Decide(ctxO)))
		rHeu := pendingRobustness(c, 0, now, applyDrops(q, h.Decide(ctxO)))
		if rOpt < rHeu-1e-9 {
			t.Fatalf("case %d: optimal %v < heuristic %v", i, rOpt, rHeu)
		}
	}
}

func TestOptimalNeverDropsRunningOrLast(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for i := 0; i < 200; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		drops := (Optimal{}).Decide(&Context{Calc: c, Machine: 0, Now: now, Queue: q})
		for _, d := range drops {
			if d == 0 && q[0].Running {
				t.Fatalf("case %d dropped running task", i)
			}
			if d == len(q)-1 {
				t.Fatalf("case %d dropped last task", i)
			}
		}
	}
}

func TestThresholdDropsLowCoS(t *testing.T) {
	// Head CoS = 0 (exec 100, dl 50): threshold 0.25 must drop it; the
	// next task then succeeds and survives.
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}, {delta(10)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 50},
		{Type: 1, Deadline: 40},
	}
	th := Threshold{Base: 0.25}
	got := th.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q})
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("got %v, want [0]", got)
	}
}

func TestThresholdKeepsHighCoS(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(10)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 100},
		{Type: 0, Deadline: 100},
	}
	if got := (Threshold{Base: 0.25}).Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q}); got != nil {
		t.Fatalf("dropped %v from an all-feasible queue", got)
	}
}

func TestThresholdAdaptsToPressure(t *testing.T) {
	// CoS of the head is 0.5; base threshold 0.4. Under low pressure the
	// effective threshold falls to 0.2 → keep; under heavy pressure it
	// rises to 0.8 → drop.
	m := testMatrix(t, [][]pmf.PMF{{twoPoint(10, 0.5, 60)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 50},
		{Type: 0, Deadline: 500},
	}
	th := Threshold{Base: 0.4, Adaptive: true}
	low := th.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q, BatchPressure: 0.1})
	if low != nil {
		t.Fatalf("low pressure dropped %v", low)
	}
	high := th.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q, BatchPressure: 5})
	if !reflect.DeepEqual(high, []int{0}) {
		t.Fatalf("high pressure got %v, want [0]", high)
	}
}

func TestThresholdZeroDisables(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}, {delta(100)}})
	c := NewCalculus(m)
	q := []QueueTask{{Type: 0, Deadline: 10}, {Type: 1, Deadline: 10}}
	if got := (Threshold{Base: 0}).Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q}); got != nil {
		t.Fatalf("zero threshold dropped %v", got)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"reactdrop", "Reactive", "none", "heuristic", "OPTIMAL", "threshold"} {
		p, err := PolicyFromSpec(name)
		if err != nil || p == nil {
			t.Errorf("PolicyFromSpec(%q): %v", name, err)
		}
	}
	if _, err := PolicyFromSpec("bogus"); err == nil {
		t.Error("unknown policy should error")
	}
	if len(PolicyNames()) != 5 {
		t.Errorf("PolicyNames = %v", PolicyNames())
	}
}

func TestPolicyFromSpec(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
	}{
		{"heuristic", paperHeuristic},
		{"heuristic:beta=1.5,eta=3", Heuristic{Beta: 1.5, Eta: 3}},
		{"Heuristic:ETA=4", Heuristic{Beta: DefaultBeta, Eta: 4}},
		{"threshold", paperThreshold},
		{"threshold:base=0.3,adaptive", Threshold{Base: 0.3, Adaptive: true}},
		{"threshold:base=0.3,adaptive=false", Threshold{Base: 0.3}},
		{"approx:beta=2,eta=3", ApproxHeuristic{Beta: 2, Eta: 3}},
		{"approx", ApproxHeuristic{Beta: DefaultBeta, Eta: DefaultEta}},
		{"optimal", Optimal{}},
		{"none", ReactiveOnly{}},
		// β = +Inf is the documented way to disable proactive dropping.
		{"heuristic:beta=+Inf", Heuristic{Beta: math.Inf(1), Eta: DefaultEta}},
	}
	for _, c := range cases {
		got, err := PolicyFromSpec(c.spec)
		if err != nil {
			t.Errorf("PolicyFromSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("PolicyFromSpec(%q) = %#v, want %#v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{
		"",
		"bogus",
		"heuristic:bogus=1",       // unknown parameter
		"heuristic:beta=x",        // malformed value
		"heuristic:beta=0.5",      // out of range
		"heuristic:eta=0",         // out of range
		"threshold:base=1.5",      // out of range
		"heuristic:beta=nan",      // NaN fails every < and > test: Eq. 8 would never fire
		"approx:beta=NaN",         // same walk, same guard
		"threshold:base=nan",      // ... nor would the threshold comparison
		"approx:grace=200",        // the engine's grace window is the only one
		"optimal:anything=1",      // parameters on a parameterless policy
		"heuristic:beta=1,beta=2", // duplicate key
	} {
		if _, err := PolicyFromSpec(bad); err == nil {
			t.Errorf("PolicyFromSpec(%q) should error", bad)
		}
	}
}

func TestPolicyNamesMatch(t *testing.T) {
	cases := map[string]Policy{
		"ReactDrop":       ReactiveOnly{},
		"Heuristic":       paperHeuristic,
		"Optimal":         Optimal{},
		"Threshold":       paperThreshold,
		"ApproxHeuristic": ApproxHeuristic{},
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("%T.Name() = %q, want %q", p, got, want)
		}
	}
}

func TestDroppableBounds(t *testing.T) {
	cases := []struct {
		q           []QueueTask
		first, last int
	}{
		{nil, 0, 0},
		{[]QueueTask{{}}, 0, 0},
		{[]QueueTask{{Running: true}}, 1, 1},
		{[]QueueTask{{}, {}}, 0, 1},
		{[]QueueTask{{Running: true}, {}, {}}, 1, 2},
	}
	for i, c := range cases {
		f, l := droppableBounds(c.q)
		if f != c.first || l != c.last {
			t.Errorf("case %d: bounds (%d,%d), want (%d,%d)", i, f, l, c.first, c.last)
		}
	}
}

func normalizeNil(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	return xs
}

// TestHeuristicForecastsTheEnginesGrace holds every dropper's Eq. 1
// chains to the engine's rule for starting a task: under a reactive grace
// window the engine still starts a waiting task until deadline + grace and
// runs it whole. A forecast that truncates at the bare deadline prices such
// a task's late start at nothing; the engine's truncation (Context.Append)
// charges it to the tasks behind. Eq. 2 still scores at the deadline, so
// with no grace the same queues keep what they keep under the paper's rule.
//
// On the two-task queue the droppable task is past its deadline but inside
// the grace window: it has no value left and still delays the feasible
// task behind it, so Heuristic and Optimal drop it (with no grace they
// keep it and the engine drops it reactively; Optimal's tie then goes to
// fewer drops). Threshold drops that task at any grace, its p being 0, so
// it gets a queue of its own: every task keeps p ≥ θ = 0.3, but task 1 may
// start after its deadline, and under the grace window that late start
// pushes task 2's chance of success from 0.45 to 0.2.
func TestHeuristicForecastsTheEnginesGrace(t *testing.T) {
	late := testMatrix(t, [][]pmf.PMF{{delta(100)}})
	lateQ := []QueueTask{
		{Type: 0, Deadline: 990}, // past due at now 1000, inside grace 300
		{Type: 0, Deadline: 1150},
	}
	pushed := testMatrix(t, [][]pmf.PMF{{twoPoint(100, 0.5, 300)}, {twoPoint(50, 0.8, 400)}, {twoPoint(50, 0.5, 500)}})
	pushedQ := []QueueTask{
		{Type: 0, Deadline: 1150}, // done at 1100 or 1300: p 0.5
		{Type: 1, Deadline: 1250}, // p 0.4; starts at 1300 half the time
		{Type: 2, Deadline: 1400},
	}
	for _, tc := range []struct {
		policy         Policy
		m              *pet.Matrix
		q              []QueueTask
		graced, strict []int
	}{
		{paperHeuristic, late, lateQ, []int{0}, nil},
		{Optimal{}, late, lateQ, []int{0}, nil},
		{Threshold{Base: 0.3}, pushed, pushedQ, []int{2}, nil},
	} {
		for _, grace := range []pmf.Tick{300, 0} {
			want := tc.strict
			if grace > 0 {
				want = tc.graced
			}
			ctx := &Context{Calc: NewCalculus(tc.m), Machine: 0, Now: 1000, Queue: tc.q, Grace: grace}
			if got := tc.policy.Decide(ctx); !reflect.DeepEqual(normalizeNil(got), want) {
				t.Errorf("%s at grace %d: dropped %v, want %v", tc.policy.Name(), grace, got, want)
			}
		}
	}
}
