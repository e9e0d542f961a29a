package pmf

import (
	"fmt"
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

// plantTiny rescales about one impulse in k of p to a mass near 1e-6. Each
// planted mass stays above massEps, but the product of two of them lands
// on either side of it (2.5e-13 to 2.25e-12), so the kernels see dense
// cells at or below the negligible-mass threshold next to ordinary ones.
func plantTiny(r *rand.Rand, p PMF, k int) PMF {
	imps := append([]Impulse(nil), p.Impulses()...)
	for i := range imps {
		if r.Intn(k) == 0 {
			imps[i].P = 1e-6 * (0.5 + r.Float64())
		}
	}
	return FromImpulses(imps)
}

// diffCase runs one randomized operand pair through every optimized kernel
// path and cross-checks each against its portable reference.
func diffCase(t *testing.T, r *rand.Rand, ws *Workspace, span Tick) {
	t.Helper()
	prev := randomSubPMF(r, 40, Tick(r.Int63n(500)), span)
	exec := randomExecPMF(r, 30, span/2+1)
	if r.Intn(4) == 0 {
		prev, exec = plantTiny(r, prev, 3), plantTiny(r, exec, 3)
	}
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

// TestBinningEdgeCases holds the dense kernels' binning compaction to the
// portable chain step, bit for bit, on the layouts the binning must get
// right: dense cells in (0, massEps] beside ordinary ones and windows made
// only of them (they add nothing and are not counted), a partial last
// window, budgets 1–9 (0–3 windows left outside a group of four), width 1,
// ticks near 2^40, and two clusters 60 000 ticks apart (untouched groups
// and strips are skipped). Each case runs on both dense paths where it
// can: the bitmap path (sparse window) and the linear one (tight window).
func TestBinningEdgeCases(t *testing.T) {
	imps := func(pairs ...float64) PMF {
		var out []Impulse
		for i := 0; i+1 < len(pairs); i += 2 {
			out = append(out, Impulse{T: Tick(pairs[i]), P: pairs[i+1]})
		}
		return FromImpulses(out)
	}

	// Sparse: four ordinary predecessors and three near-threshold ones over
	// an exec with near-threshold tails. Cells 340–343 and 500–503 get only
	// products of two near-threshold masses (3e-13 to 8.5e-13): inside the
	// support [101, 801] they add nothing and count for nothing, although
	// each run of them sums past massEps. 16 cells exceed it.
	tinyPrev := imps(100, 0.3, 101, 0.3, 102, 0.3, 300, 4e-7, 301, 4.5e-7, 302, 3e-7, 600, 0.09)
	tinyExec := imps(1, 1-4e-6, 40, 1e-6, 41, 1e-6, 200, 1e-6, 201, 1e-6)

	// Tight (the linear path: ≥ 2 contributions per cell): 30 ordinary and
	// two near-threshold predecessors over 25 ordinary, two near-threshold
	// and one small exec impulse. Cells 91 and 92 hold only near-threshold
	// products, inside the support [1, 151].
	var dense []float64
	for i := 0; i < 30; i++ {
		dense = append(dense, float64(i), 0.03)
	}
	densePrev := imps(append(dense, 30, 4e-7, 31, 4e-7)...)
	dense = dense[:0]
	for i := 1; i <= 25; i++ {
		dense = append(dense, float64(i), 0.0399)
	}
	denseExec := imps(append(dense, 60, 1e-6, 61, 1e-6, 120, 0.0025)...)

	r := rand.New(rand.NewSource(76))
	cluster := func(base Tick) []Impulse { return spreadPMF(r, 16, base, 200, 0.45).Impulses() }
	wide := FromImpulses(append(cluster(1000), cluster(61000)...))
	wideExec := spreadPMF(r, 22, 20, 150, 1)

	cases := []struct {
		name       string
		prev, exec PMF
		dl         Tick
	}{
		{"sub-eps/bitmap", tinyPrev, tinyExec, 1000},
		{"sub-eps/bitmap/carry", tinyPrev, tinyExec, 301},
		{"sub-eps/linear", densePrev, denseExec, 1000},
		{"sub-eps/bitmap/2^40", tinyPrev.Shift(1 << 40), tinyExec, 1<<40 + 1000},
		{"sub-eps/linear/2^40", densePrev.Shift(1<<40 - 7), denseExec, 1<<40 + 1000},
		{"clusters-60k", wide, wideExec, 70000},
		{"clusters-60k/carry", wide, wideExec, 61100},
		{"clusters-60k/tiny", plantTiny(r, wide, 3), plantTiny(r, wideExec, 3), 70000},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		raw := c.prev.NextCompletion(c.exec, c.dl)
		span := int(raw.imp[raw.Len()-1].T-raw.imp[0].T) + 1
		t.Run(c.name, func(t *testing.T) {
			// raw.Len() is the count of cells above massEps: budgets on
			// either side of it pick the plain harvest or the binned one.
			for _, budget := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 16, 20, 31, 32, 46,
				raw.Len() - 1, raw.Len(), span / 2, span, span + 5} {
				want := raw.Compact(budget)
				var ws Workspace
				if got := ws.NextCompletionCompact(c.prev, c.exec, c.dl, budget); !got.Equal(want) {
					t.Fatalf("budget %d:\n got %v\nwant %v", budget, got.Impulses(), want.Impulses())
				}
				if got := ws.NextCompletionCompactPattern(c.prev, c.exec, c.dl, budget, Pattern(c.exec)); !got.Equal(want) {
					t.Fatalf("budget %d (pattern):\n got %v\nwant %v", budget, got.Impulses(), want.Impulses())
				}
				width := (span + budget - 1) / budget
				windows := (span + width - 1) / width
				seen[fmt.Sprintf("%d windows outside a group of four", windows%4)] = true
				seen[fmt.Sprint("partial last window ", span%width != 0)] = true
				seen[fmt.Sprint("width 1 ", width == 1)] = true
			}
		})
	}
	for _, want := range []string{
		"0 windows outside a group of four", "1 windows outside a group of four",
		"2 windows outside a group of four", "3 windows outside a group of four",
		"partial last window true", "partial last window false", "width 1 true",
	} {
		if !seen[want] {
			t.Errorf("no case covers %q", want)
		}
	}
}

// FuzzNextCompletionDifferential is the fuzz-harness form of the
// differential check: the fuzzer mutates raw operand bytes which are
// decoded into sub-probability PMFs and run through both kernels. An odd
// tiny plants near-threshold masses in both operands (plantTiny).
func FuzzNextCompletionDifferential(f *testing.F) {
	f.Add(int64(1), int64(100), uint8(8), uint8(8), uint8(0))
	f.Add(int64(42), int64(5000), uint8(32), uint8(25), uint8(0))
	f.Add(int64(7), int64(1), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), int64(2500), uint8(40), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, seed, dlRaw int64, nPrev, nExec, tiny uint8) {
		r := rand.New(rand.NewSource(seed))
		prev := randomSubPMF(r, int(nPrev%64), Tick(r.Int63n(300)), 3000)
		exec := randomExecPMF(r, int(nExec%64)+1, 800)
		if tiny%2 == 1 {
			prev, exec = plantTiny(r, prev, 3), plantTiny(r, exec, 3)
		}
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
