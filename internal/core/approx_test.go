package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

func TestExpectedUtilityZeroGraceIsCoS(t *testing.T) {
	cp := pmf.FromImpulses([]pmf.Impulse{{T: 10, P: 0.4}, {T: 20, P: 0.6}})
	if got, want := ExpectedUtility(cp, 15, 0), cp.MassBefore(15); got != want {
		t.Fatalf("grace=0 utility %v != CoS %v", got, want)
	}
}

func TestExpectedUtilityLinearRamp(t *testing.T) {
	// Mass at deadline+5 with grace 10 → 0.5 value.
	cp := pmf.FromImpulses([]pmf.Impulse{{T: 105, P: 1}})
	if got := ExpectedUtility(cp, 100, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("utility = %v, want 0.5", got)
	}
	// Exactly at the deadline: full ramp value 1·(1−0) = 1? No: at t = δ
	// the task is late; the ramp gives 1 − 0/g = 1 only at t = δ itself.
	at := pmf.FromImpulses([]pmf.Impulse{{T: 100, P: 1}})
	if got := ExpectedUtility(at, 100, 10); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("utility at deadline = %v, want 1.0 (zero lateness)", got)
	}
	// Beyond the grace window: worthless.
	lateCp := pmf.FromImpulses([]pmf.Impulse{{T: 110, P: 1}})
	if got := ExpectedUtility(lateCp, 100, 10); got != 0 {
		t.Fatalf("utility beyond grace = %v, want 0", got)
	}
}

func TestExpectedUtilityMixture(t *testing.T) {
	cp := pmf.FromImpulses([]pmf.Impulse{
		{T: 90, P: 0.5},  // on time → 0.5
		{T: 104, P: 0.3}, // 4/8 into the ramp → 0.3·0.5 = 0.15
		{T: 200, P: 0.2}, // worthless
	})
	want := 0.5 + 0.3*(1-4.0/8.0)
	if got := ExpectedUtility(cp, 100, 8); math.Abs(got-want) > 1e-12 {
		t.Fatalf("utility = %v, want %v", got, want)
	}
}

func TestExpectedUtilityBounds(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		cps := c.CompletionPMFs(0, now, q)
		for k, cp := range cps {
			grace := pmf.Tick(r.Intn(100))
			u := ExpectedUtility(cp, q[k].Deadline, grace)
			cos := cp.MassBefore(q[k].Deadline)
			if u < cos-1e-9 || u > cp.TotalMass()+1e-9 {
				t.Fatalf("utility %v outside [CoS %v, mass %v]", u, cos, cp.TotalMass())
			}
		}
	}
}

func TestApproxHeuristicZeroGraceMatchesHeuristic(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	h := paperHeuristic
	a := ApproxHeuristic{Beta: DefaultBeta, Eta: DefaultEta}
	for i := 0; i < 300; i++ {
		m, q, now := randomQueueCase(r)
		c := NewCalculus(m)
		ctx := &Context{Calc: c, Machine: 0, Now: now, Queue: q}
		got := a.Decide(ctx)
		want := h.Decide(ctx)
		if !reflect.DeepEqual(normalizeNil(got), normalizeNil(want)) {
			t.Fatalf("case %d: approx(g=0) %v != heuristic %v", i, got, want)
		}
	}
}

func TestApproxHeuristicSparesSlightlyLateTasks(t *testing.T) {
	// Task 0 finishes at 100 against deadline 90 (CoS 0) and starves task
	// 1 (deadline 50) completely: the strict heuristic drops task 0
	// (gain 1 > loss 0). With a generous grace window of 200 ticks both
	// tasks retain most of their value when kept (0.95 + 0.75 = 1.70 vs
	// 1.00 for dropping), so the approximate policy keeps task 0.
	m := testMatrix(t, [][]pmf.PMF{{delta(100)}, {delta(10)}})
	c := NewCalculus(m)
	q := []QueueTask{
		{Type: 0, Deadline: 90},
		{Type: 1, Deadline: 50},
	}
	strict := paperHeuristic.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q})
	if !reflect.DeepEqual(strict, []int{0}) {
		t.Fatalf("strict heuristic: got %v, want [0]", strict)
	}
	approx := ApproxHeuristic{Beta: DefaultBeta, Eta: DefaultEta}.Decide(&Context{Calc: c, Machine: 0, Now: 0, Queue: q, Grace: 200})
	if approx != nil {
		t.Fatalf("approx heuristic dropped %v; grace should spare task 0", approx)
	}
}

func TestApproxHeuristicPanicsOnBadParams(t *testing.T) {
	m := testMatrix(t, [][]pmf.PMF{{delta(10)}, {delta(10)}})
	ctx := &Context{Calc: NewCalculus(m), Machine: 0, Now: 0,
		Queue: []QueueTask{{Type: 0, Deadline: 100}, {Type: 1, Deadline: 100}}}
	for _, a := range []ApproxHeuristic{
		{Beta: 0.5, Eta: 2},
		{Beta: 1, Eta: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("approx %+v should panic", a)
				}
			}()
			a.Decide(ctx)
		}()
	}
}

func TestApproxHeuristicName(t *testing.T) {
	if (ApproxHeuristic{}).Name() != "ApproxHeuristic" {
		t.Fatal("bad name")
	}
}
