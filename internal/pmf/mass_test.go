package pmf

import (
	"math/rand"
	"testing"
)

// kernelPath names the branch Workspace.nextCompletion takes for these
// non-zero operands at budget maxN. It mirrors the kernel's selection so the
// mass property below can assert that it drove every path rather than
// assume it.
func kernelPath(prev, exec PMF, dl Tick, maxN int) string {
	k := searchImpulses(prev.imp, dl)
	switch {
	case k == 0:
		return "carry-through"
	case k == 1 && prev.Len() == 1:
		return "single-impulse"
	}
	lo, hi := prev.Min()+exec.Min(), prev.imp[k-1].T+exec.Max()
	if k < prev.Len() {
		lo, hi = min(lo, prev.imp[k].T), max(hi, prev.Max())
	}
	span, total := int(hi-lo)+1, k*exec.Len()+prev.Len()-k
	switch {
	case span > maxDenseSpan:
		return "wide-span"
	case span > maxSpanPerContribution*total:
		return "sparse"
	case binnedUnchecked(prev.imp, exec.imp, k, maxN):
		return "dense-unchecked"
	}
	return "dense-checked"
}

// TestChainMassNeverExceedsOne is the premise of the droppers' "no task is
// worth more than 1" bound (core.valueSlack): along Eq. 1 chains of up to
// eight appends over random execution PMFs and deadlines — from idle and
// from conditioned running-task roots, compacted to the calculus budget,
// through every kernel path — a completion PMF's total mass stays within
// 1e-12 of 1 from above, and its chance of success never exceeds its mass.
func TestChainMassNeverExceedsOne(t *testing.T) {
	const budget = DefaultMaxImpulses
	r := rand.New(rand.NewSource(19))
	execs := []func() PMF{
		func() PMF { return boundPMF(r, 1+r.Intn(25), 1, 1, 400) },             // sparse
		func() PMF { return boundPMF(r, 25, 1, 1, 25) },                        // consecutive ticks
		func() PMF { return boundPMF(r, 1, 1, 1+Tick(r.Int63n(300)), 1) },      // deterministic
		func() PMF { return boundPMF(r, 2+r.Intn(60), 1, 1, 900) },             // over budget
		func() PMF { return boundPMF(r, 2+r.Intn(6), 1, 1, 3*maxDenseSpan/2) }, // wider than the dense window
	}
	check := func(chain, link int, what string, p PMF, dl Tick) {
		t.Helper()
		mass := p.TotalMass()
		if mass > 1+1e-12 {
			t.Fatalf("chain %d link %d (%s): total mass exceeds 1 by %g", chain, link, what, mass-1)
		}
		if mb := p.MassBefore(dl); mb > mass {
			t.Fatalf("chain %d link %d (%s): MassBefore(%d) = %v above total mass %v", chain, link, what, dl, mb, mass)
		}
	}
	paths, roots := map[string]int{}, map[string]int{}
	var ws Workspace
	for chain := 0; chain < 4000; chain++ {
		ws.Reset()
		now := Tick(r.Int63n(5000))
		cur, root := ws.Delta(now), "idle"
		if r.Intn(3) > 0 {
			run := execs[r.Intn(4)]()
			// Elapsed from before the first impulse to past the last, where
			// the task has outlived its model.
			cur, root = ws.ConditionalRemainingShift(run, Tick(r.Int63n(int64(run.Max())+20))-5, now), "conditioned"
		}
		roots[root]++
		check(chain, 0, root, cur, now)
		for link, depth := 1, 1+r.Intn(8); link <= depth; link++ {
			kind := r.Intn(len(execs))
			if kind == len(execs)-1 && r.Intn(4) > 0 {
				kind = r.Intn(len(execs) - 1) // keep wide spans rare: they are slow and sticky
			}
			exec := execs[kind]()
			var dl Tick
			switch r.Intn(4) {
			case 0: // everything executes
				dl = cur.Max() + 1 + Tick(r.Int63n(1000))
			case 1: // everything carries through
				dl = cur.Min() - Tick(r.Int63n(3))
			default: // the deadline splits the predecessor
				dl = cur.Min() + Tick(r.Int63n(int64(cur.Max()-cur.Min())+2))
			}
			path := kernelPath(cur, exec, dl, budget)
			paths[path]++
			cur = ws.NextCompletionCompact(cur, exec, dl, budget)
			if cur.Len() > budget {
				t.Fatalf("chain %d link %d (%s): %d impulses over budget %d", chain, link, path, cur.Len(), budget)
			}
			check(chain, link, path, cur, dl)
		}
	}
	for _, path := range []string{"single-impulse", "dense-checked", "dense-unchecked", "sparse", "carry-through", "wide-span"} {
		if paths[path] < 50 {
			t.Errorf("kernel path %s driven %d times, want at least 50 (all: %v)", path, paths[path], paths)
		}
	}
	if roots["idle"] == 0 || roots["conditioned"] == 0 {
		t.Errorf("roots driven: %v", roots)
	}
}
