package pmf

import (
	mathbits "math/bits"
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
// PMF methods: masses accumulate into a reusable time-indexed dense window,
// whose non-zero cells are harvested in order into the arena — O(n1·n2 +
// span). Completion PMFs in this system span a few thousand ticks, so this
// is the cache-friendly case. It accumulates one of two ways, chosen by
// contributions per cell: sparse windows flag written cells in a bitmap so
// the harvest cost tracks the contribution count, not the span; when the
// window is tight relative to the contribution count (linearFillFactor)
// the bitmap is skipped entirely — accumulation is a pure strided
// load-add-store loop and the harvest is one range scan. An output span
// past maxDenseSpan (0 of the 26.3 M kernel calls of `hcexp -fig all`) is
// handed to the portable PMF.NextCompletion.
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
	touched []uint64  // bitmap of written dense cells, so harvest skips zero runs
	ebits   []uint64  // per-call bitmap of the exec impulse pattern, reused

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

// linearFillFactor selects between the two dense harvests: when the
// window averages at least this many contributions per cell, nearly every
// cell is occupied, so the straight window scan (no bitmap maintenance in
// the accumulation loop, branch-predictable range passes to harvest) beats
// flagging and walking touched words. Sparser windows keep the bitmap:
// there the harvest cost tracks the contribution count, not the span.
const linearFillFactor = 2

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
	return w.nextCompletion(prev, exec, dl, 0, nil)
}

// nextCompletion is NextCompletion with an optional compaction budget:
// with maxN > 0 the dense kernel bins over-budget output directly from the
// accumulation window (identical to harvesting then compacting, without
// materializing the intermediate impulses). maxN <= 0 harvests raw. The
// wide-span fallback, the single-impulse shift-scale path and the
// pass-through fast paths ignore maxN; the caller compacts those. pat, when non-nil,
// is exec's precomputed occupancy pattern (see Pattern) — callers chaining
// the same immutable exec PMFs repeatedly (the calculus, whose exec PMFs
// are PET matrix cells) build each pattern once instead of per call.
func (w *Workspace) nextCompletion(prev, exec PMF, dl Tick, maxN int, pat []uint64) PMF {
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
	if span := int(hi-lo) + 1; span > 0 && span <= maxDenseSpan {
		if span*linearFillFactor <= total {
			// Tight window: accumulate without bitmap maintenance. The
			// inner loop strides one subslice of the window per
			// predecessor (row), so the generated code is a plain
			// load-fma-store sequence the CPU pipelines well.
			d := w.denseLinearWindow(span)
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
			if maxN > 0 {
				return w.harvestCompactLinear(d, lo, maxN)
			}
			return w.harvestLinear(d, lo, total)
		}
		d, bits := w.denseWindow(span)
		// Every executing predecessor touches the same exec-shaped cell
		// pattern, shifted by its completion time. Accumulate row-wise (a
		// strided load-fma-store loop, as in the linear path) and OR the
		// pattern's precomputed bitmap into the touched words — a handful of
		// word operations per row instead of one read-modify-write per
		// contribution.
		eb := pat
		if eb == nil {
			eb = w.execPattern(exec)
		}
		e0 := exec.imp[0].T
		for _, a := range prev.imp[:k] {
			row := d[a.T+e0-lo:]
			ap := a.P
			for _, b := range exec.imp {
				row[b.T-e0] += ap * b.P
			}
			orShifted(bits, eb, int(a.T+e0-lo))
		}
		for _, a := range prev.imp[k:] {
			i := uint(a.T - lo)
			d[i] += a.P
			bits[i>>6] |= 1 << (i & 63)
		}
		if maxN > 0 {
			return w.harvestCompact(d, bits, lo, maxN, total)
		}
		return w.harvest(d, bits, lo, total)
	}
	// Wider than the dense window: the portable reference, in storage of
	// its own rather than the arena's.
	return prev.NextCompletion(exec, dl)
}

// denseWindow returns the zeroed span-cell accumulation window and its
// touched-cell bitmap.
func (w *Workspace) denseWindow(span int) ([]float64, []uint64) {
	d := w.denseLinearWindow(span)
	bits := w.touched[:(span+63)/64]
	clear(bits)
	return d, bits
}

// denseLinearWindow returns the zeroed span-cell accumulation window alone,
// for the linear (bitmap-free) dense path.
func (w *Workspace) denseLinearWindow(span int) []float64 {
	if cap(w.dense) < span {
		w.dense = make([]float64, span)
		w.touched = make([]uint64, (cap(w.dense)+63)/64)
	}
	d := w.dense[:span]
	clear(d)
	return d
}

// Pattern builds the occupancy bitmap of p's impulse times relative to its
// first impulse, in fresh storage: the form the dense kernel ORs into its
// touched-word bitmap once per accumulation row. Callers that convolve the
// same immutable PMF repeatedly (execution-time PMFs are matrix constants)
// build the pattern once and pass it to NextCompletionCompactPattern.
func Pattern(p PMF) []uint64 {
	if p.IsZero() {
		return []uint64{}
	}
	p0 := p.imp[0].T
	out := make([]uint64, int(p.imp[len(p.imp)-1].T-p0)>>6+1)
	for _, b := range p.imp {
		i := uint(b.T - p0)
		out[i>>6] |= 1 << (i & 63)
	}
	return out
}

// execPattern builds the occupancy bitmap of exec's impulse times relative
// to its first impulse, reused word-wise by every accumulation row.
func (w *Workspace) execPattern(exec PMF) []uint64 {
	e0 := exec.imp[0].T
	words := int(exec.imp[len(exec.imp)-1].T-e0)>>6 + 1
	if cap(w.ebits) < words {
		w.ebits = make([]uint64, words)
	}
	eb := w.ebits[:words]
	clear(eb)
	for _, b := range exec.imp {
		i := uint(b.T - e0)
		eb[i>>6] |= 1 << (i & 63)
	}
	return eb
}

// orShifted ORs the pattern src, shifted left by off cells, into dst. The
// caller guarantees every shifted bit lands inside dst.
func orShifted(dst, src []uint64, off int) {
	base, sh := off>>6, uint(off&63)
	if sh == 0 {
		for i, s := range src {
			dst[base+i] |= s
		}
		return
	}
	carry := uint64(0)
	for i, s := range src {
		dst[base+i] |= s<<sh | carry
		carry = s >> (64 - sh)
	}
	if carry != 0 {
		dst[base+len(src)] |= carry
	}
}

// harvest collects the non-negligible cells of the dense window, in time
// order, into fresh arena space. Only cells flagged in the touched bitmap
// are inspected, so the cost scales with the contribution count, not the
// window span. total bounds the number of non-zero cells.
func (w *Workspace) harvest(d []float64, bits []uint64, lo Tick, total int) PMF {
	if total > len(d) {
		total = len(d)
	}
	w.ensure(total)
	base := w.used
	out := w.block[base:base]
	for wi, word := range bits {
		for word != 0 {
			i := wi<<6 + mathbits.TrailingZeros64(word)
			word &= word - 1
			if v := d[i]; v > massEps {
				out = append(out, Impulse{T: lo + Tick(i), P: v})
			}
		}
	}
	return w.commit(base, len(out))
}

// harvestLinear is harvest for the bitmap-free dense path: one ascending
// range pass over the window (bounds-check-free — the loop variable is the
// slice's own index) appending every non-negligible cell. Untouched cells
// are exactly zero, so the output is identical to the bitmap harvest.
func (w *Workspace) harvestLinear(d []float64, lo Tick, total int) PMF {
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

// harvestCompactLinear is harvestCompact for the bitmap-free dense path:
// the same fused windowed compaction, with the support-bound and window
// walks as straight range scans. Bit-identical to harvestCompact over the
// same window.
func (w *Workspace) harvestCompactLinear(d []float64, lo Tick, maxN int) PMF {
	first, last := 0, len(d)-1
	for first < len(d) && d[first] <= massEps {
		first++
	}
	if first == len(d) {
		return Zero()
	}
	for d[last] <= massEps {
		last--
	}
	w.ensure(last - first + 1)
	base := w.used
	out := w.block[base:base]
	span := Tick(last-first) + 1
	width := span / Tick(maxN)
	if span%Tick(maxN) != 0 {
		width++
	}
	if width < 1 {
		width = 1
	}
	count := 0
	var mass, weighted float64
	flush := func() {
		if mass > massEps {
			out = append(out, Impulse{T: Tick(weighted/mass + 0.5), P: mass})
		}
		mass, weighted = 0, 0
	}
	nextBound := first // the first cell always opens a window
	for j, v := range d[first : last+1] {
		if v <= massEps {
			continue
		}
		count++
		i := first + j
		if i >= nextBound {
			flush()
			nextBound = first + (int(Tick(i-first)/width)+1)*int(width)
		}
		t := lo + Tick(i)
		mass += v
		weighted += float64(t) * v
	}
	flush()
	if count <= maxN {
		// Within budget after all: Compact would have left the impulses
		// alone, so discard the windowed merge and harvest plain.
		out = out[:0]
		for i, v := range d[first : last+1] {
			if v > massEps {
				out = append(out, Impulse{T: lo + Tick(first+i), P: v})
			}
		}
		return w.commit(base, len(out))
	}
	// Fold adjacent windows rounded to the same tick, as Compact does.
	merged := out[:0]
	for _, im := range out {
		if n := len(merged); n > 0 && merged[n-1].T == im.T {
			merged[n-1].P += im.P
		} else {
			merged = append(merged, im)
		}
	}
	return w.commit(base, len(merged))
}

// harvestCompact harvests the dense window and compacts to at most maxN
// impulses in a single arena allocation, without materializing the raw
// impulse list. The result is identical to harvest followed by Compact.
// The support bounds come from two short directional scans; one bitmap
// walk then accumulates Compact's equal-width windows while counting the
// non-negligible cells, and the rare within-budget outcome (count ≤ maxN)
// re-walks as a plain harvest. total bounds the number of non-zero cells.
func (w *Workspace) harvestCompact(d []float64, bits []uint64, lo Tick, maxN, total int) PMF {
	first, last, ok := supportBounds(d, bits)
	if !ok {
		return Zero()
	}
	if total > len(d) {
		total = len(d)
	}
	w.ensure(total)
	base := w.used
	out := w.block[base:base]
	// The windowed merge of compactInto, reading cells instead of
	// impulses. Same window arithmetic, same accumulation and flush
	// order, bit-identical results.
	span := Tick(last-first) + 1
	width := span / Tick(maxN)
	if span%Tick(maxN) != 0 {
		width++
	}
	if width < 1 {
		width = 1
	}
	count := 0
	var mass, weighted float64
	flush := func() {
		if mass > massEps {
			out = append(out, Impulse{T: Tick(weighted/mass + 0.5), P: mass})
		}
		mass, weighted = 0, 0
	}
	nextBound := first // the first cell always opens a window
	for wi := first >> 6; wi <= last>>6; wi++ {
		word := bits[wi]
		for word != 0 {
			i := wi<<6 + mathbits.TrailingZeros64(word)
			word &= word - 1
			v := d[i]
			if v <= massEps {
				continue
			}
			count++
			if i >= nextBound {
				flush()
				nextBound = first + (int(Tick(i-first)/width)+1)*int(width)
			}
			t := lo + Tick(i)
			mass += v
			weighted += float64(t) * v
		}
	}
	flush()
	if count <= maxN {
		// Within budget after all: Compact would have left the impulses
		// alone, so discard the windowed merge and harvest plain.
		out = out[:0]
		for wi := first >> 6; wi <= last>>6; wi++ {
			word := bits[wi]
			for word != 0 {
				i := wi<<6 + mathbits.TrailingZeros64(word)
				word &= word - 1
				if v := d[i]; v > massEps {
					out = append(out, Impulse{T: lo + Tick(i), P: v})
				}
			}
		}
		return w.commit(base, len(out))
	}
	// Fold adjacent windows rounded to the same tick, as Compact does.
	merged := out[:0]
	for _, im := range out {
		if n := len(merged); n > 0 && merged[n-1].T == im.T {
			merged[n-1].P += im.P
		} else {
			merged = append(merged, im)
		}
	}
	return w.commit(base, len(merged))
}

// supportBounds finds the first and last window cells above massEps via
// two directional bitmap scans; ok is false when no cell qualifies.
func supportBounds(d []float64, bits []uint64) (first, last int, ok bool) {
	for wi, word := range bits {
		for word != 0 {
			i := wi<<6 + mathbits.TrailingZeros64(word)
			word &= word - 1
			if d[i] > massEps {
				first = i
				goto forward
			}
		}
	}
	return 0, 0, false
forward:
	for wi := len(bits) - 1; wi >= 0; wi-- {
		word := bits[wi]
		for word != 0 {
			i := wi<<6 + 63 - mathbits.LeadingZeros64(word)
			if d[i] > massEps {
				return first, i, true
			}
			word &^= 1 << uint(i&63)
		}
	}
	return first, first, true
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
	return w.NextCompletionCompactPattern(prev, exec, dl, maxN, nil)
}

// NextCompletionCompactPattern is NextCompletionCompact with exec's
// precomputed occupancy pattern (Pattern). The pattern must have been
// built from this exact exec PMF; callers that chain immutable execution
// PMFs repeatedly amortize the pattern across every append.
func (w *Workspace) NextCompletionCompactPattern(prev, exec PMF, dl Tick, maxN int, pat []uint64) PMF {
	if maxN <= 0 {
		panic("pmf: non-positive impulse budget")
	}
	next := w.nextCompletion(prev, exec, dl, maxN, pat)
	if len(next.imp) <= maxN {
		return next
	}
	if len(prev.imp) == len(next.imp) && &prev.imp[0] == &next.imp[0] {
		return next.Compact(maxN)
	}
	return w.CompactTail(next, maxN)
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
