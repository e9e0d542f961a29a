package pmf

import (
	"math/rand"
	"testing"
)

// TestWorkspaceMatchesPortable cross-checks the dense-array fast path
// against the portable sort-merge implementation over many random inputs —
// the two must agree impulse for impulse.
func TestWorkspaceMatchesPortable(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var ws Workspace
	for i := 0; i < 500; i++ {
		prev := randomPMF(r, 25, 2000)
		exec := normalize(randomPMF(r, 20, 400))
		dl := Tick(r.Int63n(2500))

		want := prev.NextCompletion(exec, dl)
		got := ws.NextCompletion(prev, exec, dl)
		if !got.ApproxEqual(want, 1e-9) {
			t.Fatalf("NextCompletion mismatch (dl=%d):\n got %v\nwant %v", dl, got, want)
		}
	}
}

func TestWorkspacePaperExample(t *testing.T) {
	var ws Workspace
	exec := FromImpulses([]Impulse{{T: 1, P: 0.6}, {T: 2, P: 0.4}})
	prev := FromImpulses([]Impulse{{T: 10, P: 0.6}, {T: 11, P: 0.3}, {T: 12, P: 0.05}, {T: 13, P: 0.05}})
	got := ws.NextCompletion(prev, exec, 13)
	want := FromImpulses([]Impulse{{T: 11, P: 0.36}, {T: 12, P: 0.42}, {T: 13, P: 0.20}, {T: 14, P: 0.02}})
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("workspace NextCompletion = %v, want %v", got, want)
	}
}

func TestWorkspaceEdgeCases(t *testing.T) {
	var ws Workspace
	p := FromImpulses([]Impulse{{T: 5, P: 0.5}, {T: 9, P: 0.5}})
	exec := FromImpulses([]Impulse{{T: 3, P: 1}})

	if got := ws.NextCompletion(Zero(), exec, 10); !got.IsZero() {
		t.Fatalf("zero prev = %v", got)
	}
	// Empty exec: everything carries (degenerate but must not panic).
	if got := ws.NextCompletion(p, Zero(), 100); !got.Equal(p) {
		t.Fatalf("zero exec = %v, want pass-through", got)
	}
	// All mass carried (deadline at/below support).
	if got := ws.NextCompletion(p, exec, 5); !got.Equal(p) {
		t.Fatalf("all-carry = %v, want %v", p, got)
	}
	// Carried impulse below prevMin+execMin: dl=6 → impulse 9 carries to 9,
	// executed path starts at 5+3=8; lo must cover both.
	got := ws.NextCompletion(p, exec, 6)
	want := FromImpulses([]Impulse{{T: 8, P: 0.5}, {T: 9, P: 0.5}})
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("mixed-carry = %v, want %v", got, want)
	}
}

func TestWorkspaceCarryBelowExecPath(t *testing.T) {
	// Regression: carried impulse time smaller than prevMin+execMin.
	var ws Workspace
	prev := FromImpulses([]Impulse{{T: 10, P: 0.5}, {T: 11, P: 0.5}})
	exec := FromImpulses([]Impulse{{T: 5, P: 1}})
	got := ws.NextCompletion(prev, exec, 11) // 10 executes → 15; 11 carries → 11
	want := FromImpulses([]Impulse{{T: 11, P: 0.5}, {T: 15, P: 0.5}})
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestWorkspaceReuseDoesNotLeakState(t *testing.T) {
	var ws Workspace
	a := FromImpulses([]Impulse{{T: 1, P: 1}})
	b := FromImpulses([]Impulse{{T: 2, P: 1}})
	// Deadlines past every predecessor impulse: nothing carries, so each
	// step is the plain convolution.
	first := ws.NextCompletion(a, b, 1000)
	// A second, wider step reusing the buffer.
	c := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 100, P: 0.5}})
	second := ws.NextCompletion(c, c, 1000)
	if !first.Equal(FromImpulses([]Impulse{{T: 3, P: 1}})) {
		t.Fatalf("first = %v", first)
	}
	want := FromImpulses([]Impulse{{T: 2, P: 0.25}, {T: 101, P: 0.5}, {T: 200, P: 0.25}})
	if !second.ApproxEqual(want, 1e-12) {
		t.Fatalf("second = %v, want %v", second, want)
	}
	// And the first result must be unaffected by buffer reuse.
	if !first.Equal(FromImpulses([]Impulse{{T: 3, P: 1}})) {
		t.Fatalf("first mutated after reuse: %v", first)
	}
}

func BenchmarkNextCompletionPortable(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	prev := randomPMF(r, 32, 2000)
	exec := normalize(randomPMF(r, 25, 300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = prev.NextCompletion(exec, 1500)
	}
}

func BenchmarkNextCompletionWorkspace(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	prev := randomPMF(r, 32, 2000)
	exec := normalize(randomPMF(r, 25, 300))
	var ws Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		_ = ws.NextCompletion(prev, exec, 1500)
	}
}

func BenchmarkNextCompletionCompactWorkspace(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	prev := randomPMF(r, 32, 2000)
	exec := normalize(randomPMF(r, 25, 300))
	var ws Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		_ = ws.NextCompletionCompact(prev, exec, 1500, DefaultMaxImpulses)
	}
}

// spreadPMF builds a PMF of exactly n impulses at distinct ticks drawn from
// [base, base+span), with random masses scaled to total mass.
func spreadPMF(r *rand.Rand, n int, base Tick, span int, mass float64) PMF {
	imps := make([]Impulse, n)
	sum := 0.0
	for i, off := range r.Perm(span)[:n] {
		imps[i] = Impulse{T: base + Tick(off), P: r.Float64() + 1e-3}
		sum += imps[i].P
	}
	for i := range imps {
		imps[i].P *= mass / sum
	}
	return FromImpulses(imps)
}

// BenchmarkNextCompletionCompactChainShape is one Eq. 1 append at the
// shape the calculus feeds the kernel: a compacted chain state of 32
// impulses over ~400 ticks, a matrix cell of 22 impulses over ~150 ticks,
// and a deadline that lets most of the state execute. The output window
// spans ~550 ticks and no cell can fall under massEps, so the binning runs
// unchecked and costs about as much as the accumulation.
func BenchmarkNextCompletionCompactChainShape(b *testing.B) {
	r := rand.New(rand.NewSource(33))
	prev := spreadPMF(r, 32, 1000, 400, 0.9)
	exec := spreadPMF(r, 22, 20, 150, 1)
	var ws Workspace
	b.ReportAllocs()
	for b.Loop() {
		ws.Reset()
		ws.NextCompletionCompact(prev, exec, 1300, DefaultMaxImpulses)
	}
}

// BenchmarkNextCompletionCompactSparseWide is a chain state in two
// clusters 60 000 ticks apart: the output window spans ~60 000 ticks for
// 704 contributions, over maxSpanPerContribution cells each, so the step
// takes the portable reference, whose cost tracks the contributions.
func BenchmarkNextCompletionCompactSparseWide(b *testing.B) {
	r := rand.New(rand.NewSource(34))
	a := spreadPMF(r, 16, 1000, 200, 0.45).Impulses()
	c := spreadPMF(r, 16, 61000, 200, 0.45).Impulses()
	prev := FromImpulses(append(append([]Impulse{}, a...), c...))
	exec := spreadPMF(r, 22, 20, 150, 1)
	var ws Workspace
	b.ReportAllocs()
	for b.Loop() {
		ws.Reset()
		ws.NextCompletionCompact(prev, exec, 70000, DefaultMaxImpulses)
	}
}

func BenchmarkCompact(b *testing.B) {
	r := rand.New(rand.NewSource(32))
	p := randomPMF(r, 200, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Compact(DefaultMaxImpulses)
	}
}
