package pmf

import (
	"math/rand"
	"testing"
)

// This file differentially tests the workspace kernels (dense counting
// accumulation, fused harvest-compaction, in-place tail compaction, the
// wide-span fallback) against the naive portable implementations on
// randomized sub-probability PMFs: bit-identical impulses.

// randomSubPMF builds a random sub-probability PMF with up to maxImp
// impulses spread over span ticks starting near base. Total mass is drawn
// in (0, 1]; a zero impulse count (empty PMF) is possible.
func randomSubPMF(r *rand.Rand, maxImp int, base, span Tick) PMF {
	n := r.Intn(maxImp + 1)
	imps := make([]Impulse, 0, n)
	total := r.Float64()
	if n > 0 {
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			weights[i] = r.Float64() + 1e-6
			sum += weights[i]
		}
		for i := range weights {
			imps = append(imps, Impulse{
				T: base + Tick(r.Int63n(int64(span))),
				P: total * weights[i] / sum,
			})
		}
	}
	return FromImpulses(imps)
}

// randomExecPMF builds a non-empty execution-time PMF. Exec operands are
// kept non-empty because the portable and workspace kernels intentionally
// differ on that degenerate input (the workspace carries every scenario
// through, see Workspace.NextCompletion; the engine only ever supplies
// mass-1 histograms).
func randomExecPMF(r *rand.Rand, maxImp int, span Tick) PMF {
	for {
		if p := randomSubPMF(r, maxImp, 1, span); !p.IsZero() {
			return p
		}
	}
}

// diffCase runs one randomized operand pair through every optimized kernel
// path and cross-checks each against its portable reference.
func diffCase(t *testing.T, r *rand.Rand, ws *Workspace, span Tick) {
	t.Helper()
	prev := randomSubPMF(r, 40, Tick(r.Int63n(500)), span)
	exec := randomExecPMF(r, 30, span/2+1)
	dl := Tick(r.Int63n(int64(span) + 500))

	wantNC := prev.NextCompletion(exec, dl)
	if got := ws.NextCompletion(prev, exec, dl); !got.Equal(wantNC) {
		t.Fatalf("NextCompletion mismatch (dl=%d):\n got %v\nwant %v", dl, got, wantNC)
	}

	// Fused harvest-compaction vs naive chain step at a random budget.
	budget := 1 + r.Intn(48)
	want := wantNC.Compact(budget)
	if got := ws.NextCompletionCompact(prev, exec, dl, budget); !got.Equal(want) {
		t.Fatalf("NextCompletionCompact mismatch (dl=%d budget=%d):\n got %v\nwant %v", dl, budget, got, want)
	}

	// In-place tail compaction of a fresh kernel result.
	raw := ws.NextCompletion(prev, exec, dl)
	if got := ws.CompactTail(raw, budget); !got.Equal(want) {
		t.Fatalf("CompactTail mismatch (budget=%d):\n got %v\nwant %v", budget, got, want)
	}
}

// TestKernelDifferentialDense drives the dense accumulation path (narrow
// spans) against the portable reference.
func TestKernelDifferentialDense(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var ws Workspace
	for i := 0; i < 2000; i++ {
		diffCase(t, r, &ws, 2000)
		if i%64 == 0 {
			ws.Reset()
		}
	}
}

// TestKernelDifferentialMerge drives the wide-span fallback: operand spans
// wide enough that the output span exceeds the dense window bound, so the
// workspace hands the step to the portable reference and compacts the
// heap-owned result outside the arena.
func TestKernelDifferentialMerge(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	var ws Workspace
	for i := 0; i < 300; i++ {
		diffCase(t, r, &ws, 3*maxDenseSpan)
		if i%16 == 0 {
			ws.Reset()
		}
	}
}

// FuzzNextCompletionDifferential is the fuzz-harness form of the
// differential check: the fuzzer mutates raw operand bytes which are
// decoded into sub-probability PMFs and run through both kernels.
func FuzzNextCompletionDifferential(f *testing.F) {
	f.Add(int64(1), int64(100), uint8(8), uint8(8))
	f.Add(int64(42), int64(5000), uint8(32), uint8(25))
	f.Add(int64(7), int64(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed, dlRaw int64, nPrev, nExec uint8) {
		r := rand.New(rand.NewSource(seed))
		prev := randomSubPMF(r, int(nPrev%64), Tick(r.Int63n(300)), 3000)
		exec := randomExecPMF(r, int(nExec%64)+1, 800)
		dl := Tick(dlRaw%4000 + 1)
		if dl < 0 {
			dl = -dl
		}
		var ws Workspace
		want := prev.NextCompletion(exec, dl)
		if got := ws.NextCompletion(prev, exec, dl); !got.Equal(want) {
			t.Fatalf("NextCompletion mismatch (dl=%d):\n got %v\nwant %v", dl, got, want)
		}
		budget := 1 + int(nPrev%32)
		wantC := want.Compact(budget)
		if got := ws.NextCompletionCompact(prev, exec, dl, budget); !got.Equal(wantC) {
			t.Fatalf("NextCompletionCompact mismatch (dl=%d budget=%d):\n got %v\nwant %v", dl, budget, got, wantC)
		}
	})
}

// TestCloneIntoPinsAcrossReset exercises the pinning primitive of the
// arena memory contract: a clone of an arena-backed result must survive a
// Reset and the arena being overwritten by new work, while reusing the
// caller's buffer across pins.
func TestCloneIntoPinsAcrossReset(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	var ws Workspace
	var buf []Impulse
	for i := 0; i < 50; i++ {
		prev := randomSubPMF(r, 30, 10, 1500)
		exec := randomExecPMF(r, 20, 300)
		dl := Tick(r.Int63n(2000))
		got := ws.NextCompletionCompact(prev, exec, dl, DefaultMaxImpulses)
		want := prev.NextCompletion(exec, dl).Compact(DefaultMaxImpulses)

		var pinned PMF
		pinned, buf = got.CloneInto(buf)
		if !pinned.Equal(got) {
			t.Fatalf("case %d: clone differs from original:\n got %v\nwant %v", i, pinned, got)
		}
		// Recycle the arena and scribble over it with unrelated work; the
		// pinned clone must be unaffected.
		ws.Reset()
		for j := 0; j < 4; j++ {
			_ = ws.NextCompletionCompact(randomSubPMF(r, 30, 10, 1500), randomExecPMF(r, 20, 300),
				Tick(r.Int63n(2000)), DefaultMaxImpulses)
		}
		if !pinned.Equal(want) {
			t.Fatalf("case %d: pinned clone corrupted after Reset:\n got %v\nwant %v", i, pinned, want)
		}
	}
}

// TestChainDifferential chains many random Eq. 1 steps through one
// workspace (as the calculus does) and cross-checks every intermediate
// against the portable chain — guarding the arena bookkeeping, not just a
// single call.
func TestChainDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	var ws Workspace
	for trial := 0; trial < 100; trial++ {
		ws.Reset()
		got := Delta(Tick(r.Int63n(100)))
		want := got
		for step := 0; step < 8; step++ {
			exec := randomExecPMF(r, 25, 400)
			dl := Tick(r.Int63n(3000))
			got = ws.NextCompletionCompact(got, exec, dl, DefaultMaxImpulses)
			want = want.NextCompletion(exec, dl).Compact(DefaultMaxImpulses)
			if !got.Equal(want) {
				t.Fatalf("trial %d step %d (dl=%d):\n got %v\nwant %v", trial, step, dl, got, want)
			}
		}
	}
}
