package sim

import (
	"math"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

func TestReactiveGraceExtendsWaiting(t *testing.T) {
	// Task 1 cannot start before its deadline (50) — under strict
	// semantics it is reactively dropped. With ReactiveGrace 100 it may
	// start as late as deadline+100, so it runs (late) and earns partial
	// utility.
	m := testMatrix(t, 1, pmf.Delta(10))
	mk := func() *Engine {
		tr := makeTrace(
			[]pmf.Tick{0, 1},
			[]pmf.Tick{200, 50},
			[]pmf.Tick{100, 10},
		)
		return New(m, tr, fifoMapper{}, nil, cfgNoExclusion())
	}

	strict := mk()
	resStrict := strict.Run()
	if resStrict.DroppedReactive != 1 {
		t.Fatalf("strict: %+v", resStrict)
	}
	if resStrict.UtilityPct != resStrict.RobustnessPct {
		t.Fatalf("zero grace: utility %v != robustness %v", resStrict.UtilityPct, resStrict.RobustnessPct)
	}

	tr := makeTrace(
		[]pmf.Tick{0, 1},
		[]pmf.Tick{200, 50},
		[]pmf.Tick{100, 10},
	)
	cfg := cfgNoExclusion()
	cfg.ReactiveGrace = 100
	graced := New(m, tr, fifoMapper{}, nil, cfg)
	resGrace := graced.Run()
	if resGrace.DroppedReactive != 0 || resGrace.Late != 1 {
		t.Fatalf("graced: %+v", resGrace)
	}
	// Task 1 starts at 100, finishes 110; lateness 60 of grace 100 →
	// utility 0.4 for it, 1.0 for task 0 → 70% mean.
	if got, want := resGrace.UtilityPct, 70.0; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("graced utility = %v, want %v", got, want)
	}
	// Robustness itself is unchanged by grace (still strict on-time).
	if resGrace.RobustnessPct != 50 {
		t.Fatalf("graced robustness = %v, want 50", resGrace.RobustnessPct)
	}
}

func TestUtilityPctMatchesUtilityScore(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(10))
	n := 30
	arr := make([]pmf.Tick, n)
	dl := make([]pmf.Tick, n)
	ex := make([]pmf.Tick, n)
	for i := range arr {
		arr[i] = pmf.Tick(i)
		dl[i] = arr[i] + 40
		ex[i] = 10
	}
	cfg := cfgNoExclusion()
	cfg.ReactiveGrace = 25
	e := New(m, makeTrace(arr, dl, ex), fifoMapper{}, nil, cfg)
	rec := Record(e)
	res := e.Run()
	if got, want := res.UtilityPct, refUtilityScore(rec.TaskStates(), 25, 0); math.Abs(got-want) > 1e-9 || got <= res.RobustnessPct {
		t.Fatalf("UtilityPct %v, task-by-task score %v, robustness %v", got, want, res.RobustnessPct)
	}
}
