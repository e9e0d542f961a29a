package pmf

import (
	"math"
	"sync/atomic"
)

// Workspace provides allocation-free convolution for the hot paths of the
// completion-time calculus. It owns an arena of impulse storage: every
// result it returns aliases arena memory and stays valid until the next
// Reset, so a chain of Eq. 1 evaluations runs with zero steady-state
// allocations. Reset recycles the arena in O(1); the owner (one calculus
// per simulation engine) calls it once per dropping decision.
//
// One accumulation kernel replaces the append-then-sort of the portable
// PMF methods: masses accumulate into a reusable time-indexed dense window
// — a strided load-add-store loop per predecessor, with no bookkeeping of
// which cells were written — whose non-zero cells are harvested in order
// into the arena by one range scan: O(n1·n2 + span). Completion PMFs in
// this system span a few thousand ticks with a few contributions per
// cell, so this is the cache-friendly case. A window wider than
// maxSpanPerContribution cells per contribution, or wider than
// maxDenseSpan, would cost its span rather than its contributions and is
// handed to the portable PMF.NextCompletion instead.
//
// The chain step of the calculus (NextCompletionCompact) harvests
// differently: binCompact bins the window straight into the budget's
// compaction windows, each group of four in one loop, lanes in lockstep
// with no per-cell branch, and emits the group's impulses from the lane
// sums.
// When no touched cell can be at or below massEps and the count of them
// is sure to exceed the budget (binnedUnchecked), it bins the whole
// window as it stands; otherwise one pass first zeroes the negligible
// cells and counts the rest.
//
// Every path sums equal-time contributions in ascending left-impulse
// order — the floating-point addition order of the naive nested loop, and
// the order the portable accumulator's stable sort preserves — so all of
// them, the portable reference included, are bit-identical.
//
// A Workspace is not safe for concurrent use; each simulation engine owns
// one.
type Workspace struct {
	block   []Impulse // current arena block; results alias this (or older, still-referenced blocks)
	used    int       // committed impulses in block
	lastOff int       // offset of the most recent allocation, for in-place compaction
	dense   []float64 // dense accumulation window, reused across calls

	// peak is the arena high-water mark in impulses, and peakBytes its
	// byte value published for concurrent metrics scrapes. commit guards
	// the atomic store behind a plain compare on peak — the peak plateaus
	// after warm-up, so the kernel hot path pays one predictable branch,
	// not an atomic, per result. Because a Workspace embeds an atomic it
	// must not be copied after first use; owners hold it by pointer.
	peak      int
	peakBytes atomic.Int64
}

// impulseBytes is the arena accounting unit: one Impulse (Tick + float64).
const impulseBytes = 16

// HighWaterBytes returns the peak committed arena footprint in bytes —
// how much impulse storage the busiest decision epoch actually used.
// Safe to call concurrently with kernel operations.
func (w *Workspace) HighWaterBytes() int64 { return w.peakBytes.Load() }

// Arena block sizing, in impulses (16 B each). Blocks double until the cap;
// a workspace that is never Reset then degrades to one block allocation per
// ~1 MiB of results instead of growing without bound.
const (
	minBlockImpulses = 4 << 10
	maxBlockImpulses = 64 << 10
)

// maxDenseSpan bounds the dense window (one float64 per tick of output
// span); anything wider goes to the portable reference, whose cost does not
// depend on the span.
const maxDenseSpan = 1 << 17

// maxSpanPerContribution bounds the dense window relative to the work it
// holds: a window of more cells than this many per contribution is mostly
// empty, and its range scans would cost more than the accumulation, so it
// goes to the portable reference too. The calculus' windows hold at most
// one cell in 15 per contribution; two chain states 60 000 ticks apart
// hold about one in 85.
const maxSpanPerContribution = 64

// Reset recycles the arena. Every PMF previously returned by this
// workspace (and everything derived from one by in-place compaction) is
// invalidated: its storage will be overwritten by subsequent calls.
func (w *Workspace) Reset() {
	w.used = 0
	w.lastOff = 0
}

// ensure makes room for n more impulses at the arena tail, switching to a
// fresh block when the current one is full. Old blocks stay alive for as
// long as previously returned PMFs reference them.
func (w *Workspace) ensure(n int) {
	if w.used+n <= len(w.block) {
		return
	}
	size := 2 * len(w.block)
	if size > maxBlockImpulses {
		size = maxBlockImpulses
	}
	if size < minBlockImpulses {
		size = minBlockImpulses
	}
	if size < n {
		size = n
	}
	w.block = make([]Impulse, size)
	w.used = 0
	w.lastOff = 0
}

// commit finalizes the n-impulse allocation starting at base and returns
// the aliasing PMF (capacity-clamped so nothing can append past it).
func (w *Workspace) commit(base, n int) PMF {
	w.lastOff = base
	w.used = base + n
	if w.used > w.peak {
		w.peak = w.used
		w.peakBytes.Store(int64(w.used) * impulseBytes)
	}
	return PMF{imp: w.block[base : base+n : base+n]}
}

// NextCompletion implements Eq. 1 of the paper with arena storage: given
// the completion-time PMF of the predecessor task (prev, c_{i-1}) and the
// execution-time PMF of the pending task (exec, e_i) with hard deadline dl
// (δ_i), it returns the completion-time PMF of the pending task, c_i.
// Results are bit-identical to PMF.NextCompletion for a non-empty exec (see
// the comment on Workspace).
//
// The returned PMF may alias workspace memory; it is valid until Reset.
func (w *Workspace) NextCompletion(prev, exec PMF, dl Tick) PMF {
	return w.nextCompletion(prev, exec, dl, 0)
}

// nextCompletion is NextCompletion with an optional compaction budget:
// with maxN > 0 the dense kernel bins over-budget output directly from the
// accumulation window (binCompact: identical to harvesting then compacting,
// without materializing the intermediate impulses). maxN <= 0 harvests raw.
// The portable route, the single-impulse shift-scale path and the
// pass-through fast paths ignore maxN; the caller compacts those.
func (w *Workspace) nextCompletion(prev, exec PMF, dl Tick, maxN int) PMF {
	if prev.IsZero() {
		return Zero()
	}
	if exec.IsZero() {
		// No execution mass at all: every scenario carries through.
		return prev
	}
	// Impulses are time-sorted, so the predecessors completing before dl
	// (those whose successor executes) form a prefix.
	k := searchImpulses(prev.imp, dl)
	if k == 0 {
		// Everything carries through.
		return prev
	}
	if k == 1 && len(prev.imp) == 1 {
		// One executing predecessor and nothing carrying through: the
		// output is exec shifted and scaled — a single copy pass, same
		// contribution order and massEps drops as the general kernels.
		// This is every chain's first append off an idle (delta) root.
		a := prev.imp[0]
		w.ensure(len(exec.imp))
		base := w.used
		out := w.block[base:base]
		for _, b := range exec.imp {
			if v := a.P * b.P; v > massEps {
				out = append(out, Impulse{T: a.T + b.T, P: v})
			}
		}
		return w.commit(base, len(out))
	}
	// Output bounds. Impulses below dl expand by the execution span;
	// impulses at or above dl carry through unchanged.
	var lo, hi Tick
	if k == len(prev.imp) {
		// Everything executes.
		lo = prev.imp[0].T + exec.imp[0].T
		hi = prev.imp[k-1].T + exec.imp[len(exec.imp)-1].T
	} else {
		lo = prev.imp[0].T + exec.imp[0].T
		if c := prev.imp[k].T; c < lo {
			lo = c
		}
		hi = prev.imp[len(prev.imp)-1].T
		if h := prev.imp[k-1].T + exec.imp[len(exec.imp)-1].T; h > hi {
			hi = h
		}
	}
	total := k*len(exec.imp) + (len(prev.imp) - k)
	span := int(hi-lo) + 1
	if span <= 0 || span > maxDenseSpan || span > maxSpanPerContribution*total {
		// Too wide for the dense window, or too sparse for it to pay: the
		// portable reference, in storage of its own rather than the arena's.
		return prev.NextCompletion(exec, dl)
	}
	// The inner loop strides one subslice of the window per predecessor
	// (row), so the generated code is a plain load-fma-store sequence the
	// CPU pipelines well.
	if cap(w.dense) < span {
		w.dense = make([]float64, span)
	}
	d := w.dense[:span]
	clear(d)
	e0 := exec.imp[0].T
	for _, a := range prev.imp[:k] {
		row := d[a.T+e0-lo:]
		ap := a.P
		for _, b := range exec.imp {
			row[b.T-e0] += ap * b.P
		}
	}
	for _, a := range prev.imp[k:] {
		d[a.T-lo] += a.P
	}
	if maxN <= 0 {
		return w.harvest(d, lo, total)
	}
	if !binnedUnchecked(prev.imp, exec.imp, k, maxN) {
		first, last, ok := supportBounds(d)
		if !ok {
			return Zero()
		}
		d, lo = d[first:last+1], lo+Tick(first)
		if n := dropNegligible(d); n <= maxN {
			// Within the budget after all: Compact would leave the
			// impulses alone.
			return w.harvest(d, lo, n)
		}
	}
	return w.binCompact(d, lo, maxN)
}

// binnedUnchecked reports whether the dense window of a chain step needs
// neither the massEps check of its cells nor their count before binning:
// when the least executing predecessor mass times the least exec mass
// exceeds massEps and so does every carried mass, every touched cell
// exceeds it too (rounding is monotone, and adding a non-negative term
// never lowers a sum), and untouched cells are exactly zero. k executing
// ticks and len(exec) exec ticks, each set distinct, make at least
// k+len(exec)−1 distinct sums, so when that exceeds maxN so does the count
// of touched cells — Compact would bin — and the window's first and last
// cells are the first and last touched ones.
func binnedUnchecked(prev, exec []Impulse, k, maxN int) bool {
	return k+len(exec)-1 > maxN && minMass(prev[:k])*minMass(exec) > massEps && minMass(prev[k:]) > massEps
}

// minMass returns the least impulse mass of imps, +Inf for none.
func minMass(imps []Impulse) float64 {
	m := math.Inf(1)
	for _, im := range imps {
		if im.P < m {
			m = im.P
		}
	}
	return m
}

// Pattern returns nil: the dense kernel keeps no occupancy bitmap, so
// there is nothing to precompute. It stays, with
// NextCompletionCompactPattern, because the benchmark harness
// (bench/hcbench) calls both.
func Pattern(PMF) []uint64 { return nil }

// harvest collects the non-negligible cells of the dense window, in time
// order, into fresh arena space: one ascending range pass over the window
// (bounds-check-free — the loop variable is the slice's own index). total
// bounds the number of non-zero cells.
func (w *Workspace) harvest(d []float64, lo Tick, total int) PMF {
	if total > len(d) {
		total = len(d)
	}
	w.ensure(total)
	base := w.used
	out := w.block[base:base]
	for i, v := range d {
		if v > massEps {
			out = append(out, Impulse{T: lo + Tick(i), P: v})
		}
	}
	return w.commit(base, len(out))
}

// dropNegligible zeroes every cell of d at or below massEps and returns the
// number of cells left, with no per-cell branch: a non-negative float64's
// bit pattern orders like its value, so the mask is all ones for a cell
// above massEps and zero otherwise.
func dropNegligible(d []float64) (n int) {
	eps := math.Float64bits(massEps)
	for i, v := range d {
		b := math.Float64bits(v)
		k := uint64(int64(eps-b) >> 63)
		d[i] = math.Float64frombits(b & k)
		n += int(k & 1)
	}
	return n
}

// binCompact compacts the dense window d, whose first cell is tick lo, to
// at most maxN impulses in one arena allocation, without materializing the
// raw impulse list: the result is identical to harvest followed by
// Compact. The caller guarantees what Compact's binning presumes: d's
// first and last cells are the support's, every non-zero cell exceeds
// massEps, and there are more than maxN of them.
//
// It is compactInto's windowed merge read off cells instead of impulses.
// The support is cut into the same equal-width windows, and each window
// sums its cells in ascending order starting from 0, so every mass,
// weighted time, rounded tick and merged tick is bit-identical (a zero
// cell adds +0 to both sums). Each group of four adjacent windows
// accumulates side by side in one loop, four lanes in lockstep, so the
// eight sums are independent add chains the CPU overlaps instead of one
// serial chain; each lane carries its tick as a float64 counter, exact for
// integer ticks, so it equals the converted tick the weighted sum of
// compactInto uses. The four windows are emitted straight from the lane
// sums. What is left after the last whole group (up to three windows and
// a partial last one) accumulates one window at a time (binOne).
func (w *Workspace) binCompact(d []float64, lo Tick, maxN int) PMF {
	span := len(d)
	width := (span + maxN - 1) / maxN
	w.ensure(maxN)
	base := w.used
	out := w.block[base:base]
	fw := float64(width)
	s := 0
	for ; s+4*width <= span; s += 4 * width {
		var m0, m1, m2, m3, x0, x1, x2, x3 float64
		d0 := d[s : s+width]
		d1 := d[s+width:][:len(d0)]
		d2 := d[s+2*width:][:len(d0)]
		d3 := d[s+3*width:][:len(d0)]
		t0 := float64(lo + Tick(s))
		t1, t2, t3 := t0+fw, t0+2*fw, t0+3*fw
		for j, v := range d0 {
			m0 += v
			x0 += t0 * v
			v = d1[j]
			m1 += v
			x1 += t1 * v
			v = d2[j]
			m2 += v
			x2 += t2 * v
			v = d3[j]
			m3 += v
			x3 += t3 * v
			t0++
			t1++
			t2++
			t3++
		}
		out = window{m0, x0}.emit(out)
		out = window{m1, x1}.emit(out)
		out = window{m2, x2}.emit(out)
		out = window{m3, x3}.emit(out)
	}
	for ; s < span; s += width {
		out = binOne(d[s:min(s+width, span)], float64(lo+Tick(s))).emit(out)
	}
	return w.commit(base, len(out))
}

// window is one compaction window's running sums: its mass and its
// mass-weighted time.
type window struct{ mass, weighted float64 }

// emit appends the window's merged impulse, if it holds any mass, as
// compactInto's flush does, folding it into the previous impulse when both
// round to the same tick, as compactInto's final pass does (in the same
// order, so with the same sums).
func (b window) emit(out []Impulse) []Impulse {
	if b.mass <= massEps {
		return out
	}
	t := Tick(b.weighted/b.mass + 0.5)
	if n := len(out); n > 0 && out[n-1].T == t {
		out[n-1].P += b.mass
		return out
	}
	return append(out, Impulse{T: t, P: b.mass})
}

// binOne is one lane of binCompact's group loop: it sums the cells of g,
// the first at tick t, into one window.
func binOne(g []float64, t float64) window {
	var m, x float64
	for _, v := range g {
		m += v
		x += t * v
		t++
	}
	return window{m, x}
}

// supportBounds finds the first and last window cells above massEps by two
// range scans. ok is false when no cell qualifies.
func supportBounds(d []float64) (first, last int, ok bool) {
	for first < len(d) && d[first] <= massEps {
		first++
	}
	if first == len(d) {
		return 0, 0, false
	}
	last = len(d) - 1
	for d[last] <= massEps {
		last--
	}
	return first, last, true
}

// NextCompletionCompact fuses NextCompletion with compaction to maxN
// impulses — the per-task step of every completion chain. The dense kernel
// bins its accumulation window straight into the arena; other paths
// compact their result afterwards, in place when it is the arena's newest
// allocation. The distinction matters when the fast paths return prev
// itself (all mass carries through, or exec is empty): prev's storage
// belongs to the caller — it may be a cached chain state other evaluations
// still read — so an over-budget pass-through is compacted into fresh
// storage instead of being mutated in place.
func (w *Workspace) NextCompletionCompact(prev, exec PMF, dl Tick, maxN int) PMF {
	if maxN <= 0 {
		panic("pmf: non-positive impulse budget")
	}
	next := w.nextCompletion(prev, exec, dl, maxN)
	if len(next.imp) <= maxN {
		return next
	}
	if len(prev.imp) == len(next.imp) && &prev.imp[0] == &next.imp[0] {
		return next.Compact(maxN)
	}
	return w.CompactTail(next, maxN)
}

// NextCompletionCompactPattern is NextCompletionCompact; its last argument
// is ignored (see Pattern).
func (w *Workspace) NextCompletionCompactPattern(prev, exec PMF, dl Tick, maxN int, _ []uint64) PMF {
	return w.NextCompletionCompact(prev, exec, dl, maxN)
}

// CompactTail compacts p to at most maxN impulses, preserving total mass
// exactly (see PMF.Compact). If p is the most recent allocation of this
// workspace, compaction happens in place and the freed arena space is
// reclaimed; otherwise it falls back to the portable allocating Compact.
//
// In-place compaction overwrites p's storage: it must only be applied to
// a result the caller exclusively owns (fresh kernel output), never to a
// PMF shared with other live readers — see NextCompletionCompact.
func (w *Workspace) CompactTail(p PMF, maxN int) PMF {
	if maxN <= 0 {
		panic("pmf: non-positive impulse budget")
	}
	if len(p.imp) <= maxN {
		return p
	}
	if !w.ownsTail(p) {
		return p.Compact(maxN)
	}
	out := compactInto(p.imp[:0:len(p.imp)], p.imp, maxN)
	return w.commit(w.lastOff, len(out))
}

// ownsTail reports whether p is exactly the workspace's most recent
// allocation (and therefore safe to mutate in place).
func (w *Workspace) ownsTail(p PMF) bool {
	if len(p.imp) == 0 || w.lastOff+len(p.imp) != w.used {
		return false
	}
	return &p.imp[0] == &w.block[w.lastOff]
}

// Delta returns the deterministic PMF with all mass at t, stored in the
// arena (valid until Reset).
func (w *Workspace) Delta(t Tick) PMF {
	w.ensure(1)
	base := w.used
	w.block[base] = Impulse{T: t, P: 1}
	return w.commit(base, 1)
}

// ConditionalRemainingShift is the fused availability operation of the
// calculus: it returns p.ConditionalRemaining(elapsed).Shift(now) — the
// absolute completion time of a task that has been running for elapsed
// ticks as of now — with arena storage and identical arithmetic. The
// returned PMF is valid until Reset.
func (w *Workspace) ConditionalRemainingShift(p PMF, elapsed, now Tick) PMF {
	if elapsed <= 0 {
		if p.IsZero() {
			return Zero()
		}
		w.ensure(len(p.imp))
		base := w.used
		for i, im := range p.imp {
			w.block[base+i] = Impulse{T: im.T + now, P: im.P}
		}
		return w.commit(base, len(p.imp))
	}
	w.ensure(len(p.imp))
	base := w.used
	n := 0
	mass := 0.0
	for _, im := range p.imp {
		if im.T > elapsed {
			w.block[base+n] = Impulse{T: im.T - elapsed + now, P: im.P}
			mass += im.P
			n++
		}
	}
	if mass <= massEps {
		// The task has outlived its model; assume completion on the next
		// tick (see PMF.ConditionalRemaining).
		return w.Delta(now + 1)
	}
	inv := 1 / mass
	for i := base; i < base+n; i++ {
		w.block[i].P *= inv
	}
	return w.commit(base, n)
}

// searchImpulses returns the smallest index i with imps[i].T >= t (so
// imps[:i] is the strictly-before-t prefix).
func searchImpulses(imps []Impulse, t Tick) int {
	lo, hi := 0, len(imps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if imps[mid].T < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
