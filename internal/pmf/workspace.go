package pmf

import (
	"math"
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
// The chain step of the calculus (NextCompletionCompact) harvests
// differently: both dense paths bin the window straight into the budget's
// compaction windows with one function, binCompact, which range-scans four
// windows in lockstep with no per-cell branch and uses the bitmap, when
// there is one, only to skip untouched groups and strips. Its cost tracks
// the span, not the contribution count; the calculus' windows are mostly
// 40–85 % touched, where that is the cheaper trade.
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

// linearFillFactor selects between the two dense paths: when the window
// averages at least this many contributions per cell, nearly every cell is
// occupied, so the straight window scan (no bitmap maintenance in the
// accumulation loop, branch-predictable range passes to harvest) beats
// flagging and walking touched words. Sparser windows keep the bitmap:
// there the raw harvest cost tracks the contribution count, not the span,
// and the binning skips the untouched stretches.
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
// accumulation window (binCompact: identical to harvesting then compacting,
// without materializing the intermediate impulses). maxN <= 0 harvests raw. The
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
				return w.binCompact(d, nil, lo, maxN)
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
			return w.binCompact(d, bits, lo, maxN)
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

// binCompact harvests the dense window and compacts it to at most maxN
// impulses in one arena allocation, without materializing the raw impulse
// list: the result is identical to harvest followed by Compact. Both dense
// paths call it; bits is the touched-cell bitmap of the bitmap path and nil
// on the linear one, where every cell counts as touched.
//
// It is compactInto's windowed merge read off cells instead of impulses.
// The support [first, last] is cut into the same equal-width windows, and
// each window sums its cells in ascending order starting from 0, so every
// mass, weighted time, rounded tick and merged tick is bit-identical. Four
// adjacent windows accumulate side by side (binFour), so the eight sums
// are independent add chains the CPU overlaps instead of one serial chain,
// and no cell takes a data-dependent branch: a cell at or below massEps
// adds +0 through a bit mask, and the cells above it are counted. What is
// left after the last whole group of four (up to three windows and a
// partial last one) accumulates one window at a time (binOne). With a
// bitmap, a group whose words are all zero is skipped, and so is every
// word-sized strip of a wider group or window that no flagged word
// covers: untouched cells are zero, so a skip changes no sum. When the
// count is within the budget after all, Compact would have left the
// impulses alone, so the binned output is discarded and the plain harvest
// runs instead.
func (w *Workspace) binCompact(d []float64, bits []uint64, lo Tick, maxN int) PMF {
	first, last, ok := supportBounds(d, bits)
	if !ok {
		return Zero()
	}
	span := last - first + 1
	width := (span + maxN - 1) / maxN
	w.ensure(min(maxN, span))
	base := w.used
	out := w.block[base:base]
	var count uint64
	s := first
	for ; s+4*width <= last+1; s += 4 * width {
		if !touched(bits, s, s+4*width) {
			continue // four empty windows
		}
		var win [4]window
		for j := 0; j < width; j += 64 {
			n := min(64, width-j)
			busy := uint(0b1111)
			if n < width {
				// Windows wider than a word: skip the idle lanes of each
				// word-sized strip.
				busy = busyLanes(bits, s+j, n, width)
			}
			switch {
			case busy == 0: // four idle lanes
			case busy&(busy-1) == 0:
				// One busy lane: it alone is cheaper than four in lockstep.
				k := mathbits.TrailingZeros(busy)
				c := s + k*width + j
				count += binOne(&win[k], d[c:c+n], lo+Tick(c))
			default:
				count += binFour(&win, d[s+j:s+3*width+j+n], width, n, lo+Tick(s+j))
			}
		}
		for i := range win {
			out = win[i].emit(out)
		}
	}
	for ; s <= last; s += width {
		e := min(s+width, last+1)
		var b window
		for j := s; j < e; j += 64 {
			if n := min(64, e-j); touched(bits, j, j+n) {
				count += binOne(&b, d[j:j+n], lo+Tick(j))
			}
		}
		out = b.emit(out)
	}
	if count <= uint64(maxN) {
		if bits == nil {
			return w.harvestLinear(d, lo, int(count))
		}
		return w.harvest(d, bits, lo, int(count))
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

// binFour adds cells [0, n) of the four lanes g[k·width:], k = 0…3, to
// win[k] in ascending order; cell j of lane 0 is tick t. The lanes are four
// adjacent compaction windows advancing in lockstep.
func binFour(win *[4]window, g []float64, width, n int, t Tick) (count uint64) {
	eps := math.Float64bits(massEps)
	m0, m1, m2, m3 := win[0].mass, win[1].mass, win[2].mass, win[3].mass
	x0, x1, x2, x3 := win[0].weighted, win[1].weighted, win[2].weighted, win[3].weighted
	d0 := g[:n]
	d1 := g[width:][:len(d0)]
	d2 := g[2*width:][:len(d0)]
	d3 := g[3*width:][:len(d0)]
	tw := Tick(width)
	for j, v := range d0 {
		// A non-negative float64's bit pattern orders like its value, so
		// k is all ones for a cell above massEps and zero otherwise.
		tj := t + Tick(j)
		b := math.Float64bits(v)
		k := uint64(int64(eps-b) >> 63)
		f := math.Float64frombits(b & k)
		count -= k
		m0 += f
		x0 += float64(tj) * f
		b = math.Float64bits(d1[j])
		k = uint64(int64(eps-b) >> 63)
		f = math.Float64frombits(b & k)
		count -= k
		m1 += f
		x1 += float64(tj+tw) * f
		b = math.Float64bits(d2[j])
		k = uint64(int64(eps-b) >> 63)
		f = math.Float64frombits(b & k)
		count -= k
		m2 += f
		x2 += float64(tj+2*tw) * f
		b = math.Float64bits(d3[j])
		k = uint64(int64(eps-b) >> 63)
		f = math.Float64frombits(b & k)
		count -= k
		m3 += f
		x3 += float64(tj+3*tw) * f
	}
	win[0], win[1], win[2], win[3] = window{m0, x0}, window{m1, x1}, window{m2, x2}, window{m3, x3}
	return count
}

// binOne is binFour for one lane: it adds the cells of g, the first at
// tick t, to win.
func binOne(win *window, g []float64, t Tick) (count uint64) {
	eps := math.Float64bits(massEps)
	m, x := win.mass, win.weighted
	for j, v := range g {
		b := math.Float64bits(v)
		k := uint64(int64(eps-b) >> 63)
		f := math.Float64frombits(b & k)
		count -= k
		m += f
		x += float64(t+Tick(j)) * f
	}
	*win = window{m, x}
	return count
}

// touched reports whether the touched bitmap flags a word covering any
// of the cells [from, to), testing four words per step. Without a bitmap
// (the linear path) every cell counts as touched.
func touched(bits []uint64, from, to int) bool {
	if bits == nil {
		return true
	}
	ws := bits[from>>6 : (to-1)>>6+1]
	for len(ws) >= 4 {
		if ws[0]|ws[1]|ws[2]|ws[3] != 0 {
			return true
		}
		ws = ws[4:]
	}
	for _, word := range ws {
		if word != 0 {
			return true
		}
	}
	return false
}

// busyLanes returns the mask of the lanes k < 4 whose cells
// [a+k·width, a+k·width+n), n ≤ 64, lie in a flagged bitmap word (two words
// at most per lane). A lane outside the mask holds only zero cells, so
// skipping it is exact. Without a bitmap every lane is busy.
func busyLanes(bits []uint64, a, n, width int) uint {
	if bits == nil {
		return 0b1111
	}
	var busy uint
	for k := range 4 {
		c := a + k*width
		if bits[c>>6]|bits[(c+n-1)>>6] != 0 {
			busy |= 1 << k
		}
	}
	return busy
}

// supportBounds finds the first and last window cells above massEps: two
// directional bitmap scans, or two range scans with no bitmap. ok is false
// when no cell qualifies.
func supportBounds(d []float64, bits []uint64) (first, last int, ok bool) {
	if bits == nil {
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
