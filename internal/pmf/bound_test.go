package pmf

import (
	"math"
	"math/rand"
	"testing"
)

// boundPMF builds a PMF of n impulses with total mass `mass`, at distinct
// ticks drawn from [base, base+span) — consecutive ticks when span == n.
func boundPMF(r *rand.Rand, n int, mass float64, base, span Tick) PMF {
	taken := make(map[Tick]bool, n)
	imps := make([]Impulse, 0, n)
	sum := 0.0
	for len(imps) < n {
		t := base + Tick(r.Int63n(int64(span)))
		if taken[t] {
			continue
		}
		taken[t] = true
		w := r.Float64() + 1e-3
		imps = append(imps, Impulse{T: t, P: w})
		sum += w
	}
	for i := range imps {
		imps[i].P *= mass / sum
	}
	return FromImpulses(imps)
}

// TestNextCompletionMeanLowerBound is the soundness property the mappers'
// candidate pruning rests on (SplitMeanLowerBound at the split of dl): for random predecessors of 1–32 impulses and
// mass in [0.5, 1], the bound never exceeds the mean of what the kernel
// returns — raw, at the calculus budget and at a tight one — on each of the
// kernel's paths, and where it is offered it is tight to within two ticks.
func TestNextCompletionMeanLowerBound(t *testing.T) {
	type operands struct {
		prev, exec PMF
		dl         Tick
	}
	prevOf := func(r *rand.Rand, base, span Tick) PMF {
		n := 1 + r.Intn(32)
		if Tick(n) > span {
			n = int(span)
		}
		return boundPMF(r, n, 0.5+0.5*r.Float64(), base, span)
	}
	anyDeadline := func(r *rand.Rand, p PMF) Tick {
		return p.Min() - 5 + Tick(r.Int63n(int64(p.Max()-p.Min())+10))
	}
	paths := []struct {
		name    string
		bounded bool // the bound must be finite
		gen     func(r *rand.Rand) operands
	}{
		// Sparse operands over a wide window: the dense window, or the
		// portable reference where it would hold over 64 cells per
		// contribution.
		{"sparse", true, func(r *rand.Rand) operands {
			prev := prevOf(r, Tick(r.Int63n(5000)), 1500)
			return operands{prev, boundPMF(r, 1+r.Intn(25), 1, 1, 400), anyDeadline(r, prev)}
		}},
		// Consecutive ticks on both sides and everything executing: at
		// least two contributions per window cell.
		{"dense-linear", true, func(r *rand.Rand) operands {
			prev := boundPMF(r, 24+r.Intn(9), 0.5+0.5*r.Float64(), Tick(r.Int63n(5000)), 32)
			return operands{prev, boundPMF(r, 25, 1, 1, 25), prev.Max() + 1}
		}},
		// One executing predecessor, nothing carried: the shift-scale copy.
		{"single-impulse", true, func(r *rand.Rand) operands {
			prev := boundPMF(r, 1, 0.5+0.5*r.Float64(), Tick(r.Int63n(5000)), 1)
			return operands{prev, boundPMF(r, 1+r.Intn(60), 1, 1, 900), prev.Max() + 1}
		}},
		// Deadline at or before the first impulse: prev itself comes back,
		// compacted when it is over budget.
		{"carry-through", true, func(r *rand.Rand) operands {
			prev := prevOf(r, Tick(r.Int63n(5000)), 1500)
			return operands{prev, boundPMF(r, 1+r.Intn(25), 1, 1, 400), prev.Min() - Tick(r.Int63n(3))}
		}},
		// Output wider than the dense window: the portable fallback, where
		// the massEps drops are not bounded per tick and no bound is offered.
		{"wide-span", false, func(r *rand.Rand) operands {
			prev := prevOf(r, Tick(r.Int63n(5000)), 2*maxDenseSpan)
			for prev.Max()-prev.Min() < maxDenseSpan {
				prev = prevOf(r, Tick(r.Int63n(5000)), 2*maxDenseSpan)
			}
			return operands{prev, boundPMF(r, 1+r.Intn(25), 1, 1, maxDenseSpan), anyDeadline(r, prev)}
		}},
	}
	for pi, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(900 + pi)))
			var ws Workspace
			for i := 0; i < 1500; i++ {
				ws.Reset()
				op := path.gen(r)
				lb := nextCompletionMeanLowerBound(op.prev, op.exec, op.exec.Moments(), op.dl)
				if finite := !math.IsInf(lb, -1); finite != path.bounded {
					t.Fatalf("case %d: bound %v, want finite = %v (prev %v exec %v dl %d)", i, lb, path.bounded, op.prev, op.exec, op.dl)
				}
				results := map[string]PMF{
					"raw":       ws.NextCompletion(op.prev, op.exec, op.dl),
					"budget 32": ws.NextCompletionCompact(op.prev, op.exec, op.dl, 32),
					"budget 8":  ws.NextCompletionCompact(op.prev, op.exec, op.dl, 8),
				}
				for name, got := range results {
					mean := got.Mean()
					if lb > mean {
						t.Fatalf("case %d (%s): bound %v exceeds mean %v (prev %v exec %v dl %d)", i, name, lb, mean, op.prev, op.exec, op.dl)
					}
					if path.bounded && lb < mean-2 {
						t.Fatalf("case %d (%s): bound %v is more than two ticks under mean %v", i, name, lb, mean)
					}
				}
			}
		})
	}
}

// TestNextCompletionMeanLowerBoundDeclines pins the inputs for which no
// bound is given: zero operands (the result is not an Eq. 1 mixture) and a
// result mass under one half (the mean of what survives the massEps drops
// is no longer within the margin).
func TestNextCompletionMeanLowerBoundDeclines(t *testing.T) {
	exec := FromImpulses([]Impulse{{T: 5, P: 0.5}, {T: 9, P: 0.5}})
	thin := FromImpulses([]Impulse{{T: 100, P: 0.2}, {T: 130, P: 0.2}})
	for name, lb := range map[string]float64{
		"zero prev": nextCompletionMeanLowerBound(Zero(), exec, exec.Moments(), 50),
		"zero exec": nextCompletionMeanLowerBound(thin, Zero(), Moments{}, 50),
		"thin prev": nextCompletionMeanLowerBound(thin, exec, exec.Moments(), 120),
	} {
		if !math.IsInf(lb, -1) {
			t.Errorf("%s: bound %v, want -Inf", name, lb)
		}
	}
}
