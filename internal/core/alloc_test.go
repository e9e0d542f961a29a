package core

import (
	"math"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// Allocation budgets for the steady-state hot paths, enforced by CI's
// alloc-regression job. Steady state means after warm-up: the calculus
// arena, trie node pool and policy scratch have reached their high-water
// marks and are recycled in place, so chain evaluation should allocate
// nothing at all. The budgets leave one-allocation slack for runtime
// noise; a regression that reintroduces per-append slices blows through
// them immediately (the pre-arena kernel cost ~240 allocs per decision).
const (
	maxChainEvalAllocs = 1
	maxDecideAllocs    = 4 // a Decide that drops returns a fresh index slice
	// The warm persistent-cache path must be allocation-free outright: a
	// stable root signature means every append is a trie hit, and hits
	// touch no arena at all.
	maxCachedChainEvalAllocs = 0
)

// allocQueue is a representative full queue (the paper's six slots,
// running head included).
func allocQueue() []QueueTask {
	return []QueueTask{
		{Type: 0, Deadline: 400, Running: true, Elapsed: 30},
		{Type: 3, Deadline: 350},
		{Type: 7, Deadline: 420},
		{Type: 1, Deadline: 380},
		{Type: 9, Deadline: 500},
		{Type: 5, Deadline: 460},
	}
}

func allocCalculus(t testing.TB) *Calculus {
	t.Helper()
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	return NewCalculus(m)
}

// TestChainEvalAllocsSteadyState asserts that one full recycle-and-chain
// epoch — the per-event pattern of the simulation engine — allocates
// nothing once warm.
func TestChainEvalAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	calc := allocCalculus(t)
	queue := allocQueue()
	eval := func() {
		calc.Recycle()
		s, start := calc.ChainStart(2, 100, queue)
		for i := start; i < len(queue); i++ {
			s = s.AppendTask(queue[i])
		}
		if s.PMF().IsZero() {
			t.Fatal("chain evaluated to zero mass")
		}
	}
	for i := 0; i < 8; i++ { // warm the arena and node pool
		eval()
	}
	if avg := testing.AllocsPerRun(200, eval); avg > maxChainEvalAllocs {
		t.Fatalf("steady-state chain evaluation allocates %.1f/op, budget %d", avg, maxChainEvalAllocs)
	}
}

// TestCachedChainEvalAllocsSteadyState asserts the persistent-cache path:
// once a machine's chain cache is warm and its root signature stable, a
// full chain walk across recycles is pure trie traversal — zero
// allocations, zero arena traffic.
func TestCachedChainEvalAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	calc := allocCalculus(t)
	cc := calc.NewChainCache()
	queue := allocQueue()
	eval := func() {
		calc.Recycle()
		s, start := calc.ChainStartCached(cc, 2, 100, queue)
		for i := start; i < len(queue); i++ {
			s = s.AppendTask(queue[i])
		}
		if s.PMF().IsZero() {
			t.Fatal("chain evaluated to zero mass")
		}
	}
	for i := 0; i < 8; i++ {
		eval()
	}
	if avg := testing.AllocsPerRun(200, eval); avg > maxCachedChainEvalAllocs {
		t.Fatalf("warm cached chain evaluation allocates %.1f/op, budget %d", avg, maxCachedChainEvalAllocs)
	}
	if st := calc.Stats(); st.RootMisses != 1 {
		t.Fatalf("warm loop re-derived the root %d times, want 1", st.RootMisses)
	}
}

// TestPolicyDecideAllocsSteadyState asserts the same for full policy
// decisions over a recycled calculus.
func TestPolicyDecideAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	calc := allocCalculus(t)
	for _, policy := range []Policy{NewHeuristic(), NewThreshold(), Optimal{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			ctx := &Context{Calc: calc, Machine: 2, Now: 100, Queue: allocQueue(), BatchPressure: 1.5}
			decide := func() {
				calc.Recycle()
				_ = policy.Decide(ctx)
			}
			for i := 0; i < 8; i++ {
				decide()
			}
			if avg := testing.AllocsPerRun(200, decide); avg > maxDecideAllocs {
				t.Fatalf("steady-state %s decision allocates %.1f/op, budget %d", policy.Name(), avg, maxDecideAllocs)
			}
		})
	}
}

// TestMapperScanAllocsSteadyState asserts the mapper's side of a mapping
// event: a minimum-ECT scan of a 64-task batch against one machine's tail
// — a mean lower bound per candidate from the cached cell moments, an
// append only for the candidates the bound cannot rule out — allocates
// nothing once the cache is warm.
func TestMapperScanAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	calc := allocCalculus(t)
	cc := calc.NewChainCache()
	queue := allocQueue()
	type candidate struct {
		typ pet.TaskType
		dl  pmf.Tick
	}
	batch := make([]candidate, 64)
	for i := range batch {
		batch[i] = candidate{pet.TaskType(i % calc.PET.NumTaskTypes()), pmf.Tick(300 + 37*i%900)}
	}
	pruned := 0
	scan := func() {
		calc.Recycle()
		tail, start := calc.ChainStartCached(cc, 2, 100, queue)
		for i := start; i < len(queue); i++ {
			tail = tail.AppendTask(queue[i])
		}
		best := math.Inf(1)
		for _, cand := range batch {
			if tail.MeanLowerBound(cand.typ, cand.dl) >= best {
				pruned++
				continue
			}
			if ect := tail.Append(cand.typ, cand.dl).PMF().Mean(); ect < best {
				best = ect
			}
		}
		if math.IsInf(best, 1) {
			t.Fatal("scan found no candidate")
		}
	}
	for i := 0; i < 8; i++ {
		scan()
	}
	if pruned == 0 {
		t.Fatal("the bound pruned nothing; the scan does not exercise it")
	}
	if avg := testing.AllocsPerRun(200, scan); avg > maxCachedChainEvalAllocs {
		t.Fatalf("warm 64-candidate mapper scan allocates %.1f/op, budget %d", avg, maxCachedChainEvalAllocs)
	}
}
