package service

import (
	"strconv"
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// Stage-trace plumbing between the controller and internal/telemetry.
//
// traces is always a full-length slice indexed by request slot (nil when
// nothing in the batch is sampled), so the shard helpers below walk the
// same idxs selection decide() uses and skip unsampled slots. All of this
// runs only on the sampled path — the unsampled path carries a nil slice
// through one pointer check.

// eachTrace applies fn to every sampled trace of the sub-batch selected
// by idxs (see eachIdx).
func eachTrace(traces []*telemetry.Trace, idxs []int, n int, fn func(*telemetry.Trace)) {
	eachIdx(idxs, n, func(i int) {
		if a := traces[i]; a != nil {
			fn(a)
		}
	})
}

// markRoute closes the route span of every sampled trace in the
// sub-batch: trace origin (request receipt) to asking for the shard's turn.
func markRoute(traces []*telemetry.Trace, idxs []int, n int, end time.Time) {
	eachTrace(traces, idxs, n, func(a *telemetry.Trace) {
		a.Mark(telemetry.StageRoute, a.Start, end)
	})
}

// markSpans records stage st as [start, end) on every sampled trace of
// the sub-batch.
func markSpans(traces []*telemetry.Trace, idxs []int, n int, st telemetry.Stage, start, end time.Time) {
	eachTrace(traces, idxs, n, func(a *telemetry.Trace) { a.Mark(st, start, end) })
}

// extendSpans widens stage st by [start, end) on every sampled trace of
// the sub-batch (the journal span accumulates appends and the commit).
func extendSpans(traces []*telemetry.Trace, idxs []int, n int, st telemetry.Stage, start, end time.Time) {
	eachTrace(traces, idxs, n, func(a *telemetry.Trace) { a.Extend(st, start, end) })
}

// finishTraces seals the sub-batch's sampled traces after the commit:
// marks the ack span, publishes each into the shard's ring and appends
// its journal trace record. Runs under the shard's turn.
func (sh *shard) finishTraces(resp *DecideResponse, idxs []int, n int, traces []*telemetry.Trace) {
	ackStart := time.Now()
	eachIdx(idxs, n, func(i int) {
		a := traces[i]
		if a == nil {
			return
		}
		a.Mark(telemetry.StageAck, ackStart, time.Now())
		tr := sh.rec.Finish(a, sh.id, string(resp.Decisions[i].Action))
		if sh.jw != nil {
			sh.journalTrace(tr)
		}
	})
}

// TraceSnapshot is the GET /debug/traces payload: the sampling period and
// the retained completed traces, newest decision first.
type TraceSnapshot struct {
	SampleEvery int                `json:"sample_every"`
	Traces      []*telemetry.Trace `json:"traces"`
}

// Telemetry returns the controller's tracer.
func (c *Controller) Telemetry() *telemetry.Telemetry { return c.tel }

// Traces snapshots the retained stage-timed traces across all shards.
// Lock-free: reads the per-shard rings only.
func (c *Controller) Traces() TraceSnapshot {
	return TraceSnapshot{SampleEvery: c.tel.SampleEvery(), Traces: c.tel.Traces()}
}

// writeCalcMetrics renders the completion-time calculus' introspection
// series, aggregated across the shard calculi (chain-trie effectiveness,
// impulse-width distribution) plus the per-shard arena high-water gauge.
// Reads only atomics — never takes a shard's turn.
func writeCalcMetrics(x *telemetry.Writer, c *Controller) {
	var agg core.CalcStats
	shardHW := make([]int64, len(c.shards))
	for s, sh := range c.shards {
		st := sh.eng.Calc().Stats()
		agg.Add(st)
		shardHW[s] = st.ArenaHighWaterBytes
	}
	x.Counter("taskdrop_chain_cache_hits_total", "Eq. 1 chain evaluations served from the shared-prefix trie, by node kind.")
	x.Uint(agg.ChainHits, "kind", "edge")
	x.Uint(agg.RootHits, "kind", "root")
	x.Counter("taskdrop_chain_cache_misses_total", "Eq. 1 chain evaluations freshly convolved, by node kind.")
	x.Uint(agg.ChainMisses, "kind", "edge")
	x.Uint(agg.RootMisses, "kind", "root")
	x.Counter("taskdrop_chain_invalidations_total", "Persistent per-machine chain-cache resets, by reason: event = root signature drift, churn = membership change or snapshot restore, overflow = pinned-arena budget exceeded.")
	x.Uint(agg.InvalidationsEvent, "reason", "event")
	x.Uint(agg.InvalidationsChurn, "reason", "churn")
	x.Uint(agg.InvalidationsOverflow, "reason", "overflow")
	x.Counter("taskdrop_mapper_candidates_total", "Mapper candidates (batch task x free machine) by outcome: evaluated = completion PMF looked up or convolved, pruned = skipped unconvolved because a lower bound on its expected completion time (or, under MSD, its deadline) showed it could not change the choice.")
	x.Uint(agg.CandidatesEvaluated, "outcome", "evaluated")
	x.Uint(agg.CandidatesPruned, "outcome", "pruned")
	x.Counter("taskdrop_dropper_windows_total", "Dropper scenario comparisons by outcome: bounded = settled from the kept window alone because no task is worth more than 1 (heuristic verdict, or optimal subtree), evaluated = drop scenario convolved (heuristic verdict, or optimal leaf).")
	x.Uint(agg.WindowsBounded, "outcome", "bounded")
	x.Uint(agg.WindowsEvaluated, "outcome", "evaluated")
	x.Gauge("taskdrop_chain_pinned_bytes", "Impulse storage currently pinned across all persistent chain caches.").Int(agg.PinnedBytes)
	x.Gauge("taskdrop_arena_high_water_bytes", "Peak committed impulse-arena footprint per shard calculus.")
	for s, hw := range shardHW {
		x.Int(hw, "shard", strconv.Itoa(s))
	}
	bounds := make([]float64, core.NumWidthBuckets-1)
	for i := range bounds {
		bounds[i] = float64(core.WidthBucketBound(i))
	}
	x.Histogram("taskdrop_pmf_impulse_width", "Impulse count of freshly computed Eq. 1 completion PMFs (post-compaction).").
		IntBuckets(bounds, agg.Widths[:], agg.WidthSum)
}
