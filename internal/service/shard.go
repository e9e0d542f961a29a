package service

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// shard is one admission shard: a shard-scoped open engine owned by one
// single-writer decision loop, plus the shard's operational counters and
// its lock-free router view. It is the old single-engine controller's
// concurrency unit, multiplied: all determinism arguments (decisions are a
// pure function of the shard's request sequence) hold per shard.
type shard struct {
	id   int
	c    *Controller
	eng  *sim.Engine
	view *router.ShardView
	// global translates shard-local machine indexes to matrix-wide ones
	// for wire decisions and merged gauges.
	global  []int
	metrics *Metrics
	// rec is the shard's trace recorder (always non-nil; inert when
	// sampling is off).
	rec *telemetry.ShardRecorder

	cmds     chan func()
	loopDone chan struct{}

	// liveMachines/removedMachines mirror the engine's membership census
	// for lock-free scrapes; the loop refreshes them after every
	// membership operation (updateMembershipGauges).
	liveMachines    atomic.Int64
	removedMachines atomic.Int64

	// jw is the shard's write-ahead log; nil when journaling is off.
	// Written only by the shard loop (and recovery, before the loop
	// starts); the writer synchronizes its background syncer internally.
	jw *journal.Writer

	// Loop-owned state: touched only by the goroutine running loop().
	stopped bool
	final   *sim.Result
	// watermark is the highest cluster-wide sequence number this shard has
	// decided (-1 before the first decision). Journal checkpoints persist
	// it so a restart never reissues a sequence number.
	watermark int64
	// recovered holds the ID-carrying sub-batches journal recovery
	// re-derived; initJournal drains it into the dedup window before the
	// loop starts.
	recovered []recoveredBatch
}

// loop is the shard's single writer: it executes submitted closures in
// submission order until the drain command flips stopped.
func (sh *shard) loop() {
	defer close(sh.loopDone)
	for fn := range sh.cmds {
		fn()
		if sh.stopped {
			return
		}
	}
}

// do runs fn on the shard's decision loop and waits for it to finish.
func (sh *shard) do(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	wrapped := func() { defer close(done); fn() }
	select {
	case sh.cmds <- wrapped:
	case <-sh.loopDone:
		return ErrDraining
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case <-done:
		return nil
	case <-sh.loopDone:
		// The loop exited with wrapped still queued; it will never run.
		select {
		case <-done:
			return nil
		default:
			return ErrDraining
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decide admits the request tasks selected by idxs (nil = all, the
// single-shard fast path) through this shard's engine, writing each
// decision into its request slot of resp. seqs carries the cluster-wide
// sequence number per request index; traces the sampled in-flight traces
// (nil when tracing is off — the loop then reads no clock for telemetry).
// Returns the shard clock after the sub-batch, and ErrDraining if the
// shard drained before processing.
func (sh *shard) decide(ctx context.Context, req *DecideRequest, resp *DecideResponse, idxs []int, seqs []int64, traces []*telemetry.Active) (pmf.Tick, error) {
	var now pmf.Tick
	var jerr error
	committed := false
	degraded := false
	var submit time.Time
	if traces != nil {
		// Route span: origin (request receipt) to shard-loop submission.
		submit = time.Now()
		markRoute(traces, idxs, len(req.Tasks), submit)
	}
	err := sh.do(ctx, func() {
		if sh.stopped || ctx.Err() != nil {
			// Drained, or the submitter already gave up: leave the engine
			// untouched so the failed request has no effect.
			return
		}
		if sh.eng.LiveMachines() == 0 {
			// Degraded: every machine of this shard has been removed.
			// Admitting would defer the tasks into a batch nothing can ever
			// run — shed the sub-batch instead (429 on the wire) and let the
			// client retry after a revive or rebalance.
			sh.metrics.shed.Add(1)
			sh.c.metrics.shed.Add(1)
			degraded = true
			return
		}
		if traces != nil {
			// Wait span: submission until the single-writer loop picked the
			// sub-batch up.
			markSpans(traces, idxs, len(req.Tasks), telemetry.StageWait, submit, time.Now())
		}
		sh.metrics.requests.Add(1)
		if sh.jw != nil {
			n := len(idxs)
			if idxs == nil {
				n = len(req.Tasks)
			}
			sh.journalBatch(n, req.DecisionID)
		}
		decideOne := func(i int) {
			spec := &req.Tasks[i]
			a := traceAt(traces, i)
			task := sh.c.makeTask(spec, int(seqs[i]))
			if sh.jw != nil {
				// The arrive record precedes Feed so the terminal events the
				// feed triggers (via the engine hook) land after it in the log.
				if a != nil {
					js := time.Now()
					sh.journalArrive(seqs[i], task, spec.ID)
					a.Extend(telemetry.StageJournal, js, time.Now())
				} else {
					sh.journalArrive(seqs[i], task, spec.ID)
				}
			}
			var feedStart time.Time
			if a != nil {
				// Publish the trace to nested instrumentation (TimedPolicy
				// carves the dropper span out of the feed).
				sh.rec.Begin(a)
				feedStart = time.Now()
			}
			ts := sh.eng.Feed(task)
			if a != nil {
				a.Mark(telemetry.StageCalculus, feedStart, time.Now())
				sh.rec.End()
			}
			d := decisionOf(sh.eng, sh.global, sh.id, spec.ID, seqs[i], ts)
			sh.eng.ObserveDecision(sh.view, ts)
			sh.metrics.countDecision(d.Action)
			sh.c.metrics.countDecision(d.Action)
			if sh.jw != nil {
				if a != nil {
					js := time.Now()
					sh.journalDecision(seqs[i], d.Action, ts.Machine)
					a.Extend(telemetry.StageJournal, js, time.Now())
				} else {
					sh.journalDecision(seqs[i], d.Action, ts.Machine)
				}
			}
			if seqs[i] > sh.watermark {
				sh.watermark = seqs[i]
			}
			resp.Decisions[i] = d
		}
		if idxs == nil {
			for i := range req.Tasks {
				decideOne(i)
			}
		} else {
			for _, i := range idxs {
				decideOne(i)
			}
		}
		if sh.jw != nil {
			// Durability before acknowledgement: the sub-batch is committed
			// (and fsynced, under SyncAlways) before the client sees it. A
			// journal failure fails the request — the decisions happened, but
			// the service must not keep acking onto a log losing writes.
			if traces != nil {
				cs := time.Now()
				jerr = sh.commitJournal()
				extendSpans(traces, idxs, len(req.Tasks), telemetry.StageJournal, cs, time.Now())
			} else {
				jerr = sh.commitJournal()
			}
		}
		now = sh.eng.Now()
		committed = true
		if traces != nil && jerr == nil {
			sh.finishTraces(resp, idxs, len(req.Tasks), traces)
		}
	})
	if err != nil {
		return 0, err
	}
	if jerr != nil {
		return 0, jerr
	}
	if degraded {
		return 0, ErrShardDegraded
	}
	if !committed {
		// The closure skipped: either the submitter's ctx was cancelled as
		// it ran (a client problem, not a server state) or the shard drained
		// underneath it.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, ErrDraining
	}
	return now, nil
}

// actionOf maps a just-fed task's status onto the wire admission action.
func actionOf(st sim.Status) Action {
	switch st {
	case sim.StatusQueued, sim.StatusRunning:
		return ActionMap
	case sim.StatusBatch:
		return ActionDefer
	default:
		return ActionDrop
	}
}

// decisionOf assembles the wire Decision of a task eng just fed — the one
// assembly live decide, crash recovery and the offline audit share: the
// action its status encodes and, when mapped, the machine's matrix-wide
// index (global translates the shard-local one) and name. A shard engine
// carries every machine's own name — partitioning re-indexes specs and
// nothing else, and a runtime-added machine enters the controller's
// directory under its engine name — so the name needs no second lookup.
func decisionOf(eng *sim.Engine, global []int, shard int, id string, seq int64, ts *sim.TaskState) Decision {
	d := Decision{ID: id, Seq: int(seq), Shard: shard, Machine: -1, Action: actionOf(ts.Status)}
	if d.Action == ActionMap {
		d.Machine = global[ts.Machine]
		d.MachineName = eng.Machines()[ts.Machine].Spec.Name
	}
	return d
}

// snapshot reads the shard's live engine state through its decision loop.
func (sh *shard) snapshot(ctx context.Context) (ShardSnapshot, error) {
	var snap ShardSnapshot
	ok := false
	err := sh.do(ctx, func() {
		if sh.stopped {
			return
		}
		snap = ShardSnapshot{
			Shard:       sh.id,
			Now:         sh.eng.Now(),
			Live:        sh.eng.LiveCounts(),
			QueueDepths: sh.eng.QueueDepths(),
			// Copied: membership operations append to sh.global on the loop
			// while earlier snapshots may still be marshaling.
			Machines:     append([]int(nil), sh.global...),
			LiveMachines: sh.eng.LiveMachines(),
			SeqWatermark: sh.watermark,
		}
		for _, ri := range sh.eng.RemovedMachines() {
			snap.Removed = append(snap.Removed, sh.global[ri])
		}
		ok = true
	})
	if err != nil {
		return ShardSnapshot{}, err
	}
	if !ok {
		return ShardSnapshot{}, ErrDraining
	}
	// Lock-free annotations: router view and shard counters.
	snap.QueueMass = sh.view.QueueMass()
	snap.FreeSlots = sh.view.FreeSlots()
	nt := sh.c.matrix.NumTaskTypes()
	snap.Robustness = make([]float64, nt)
	for class := 0; class < nt; class++ {
		snap.Robustness[class] = sh.view.ClassRobustness(class)
	}
	snap.Requests = sh.metrics.requests.Load()
	snap.Mapped = sh.metrics.mapped.Load()
	snap.Deferred = sh.metrics.deferred.Load()
	snap.Dropped = sh.metrics.dropped.Load()
	return snap, nil
}

// drainCmd runs the shard's virtual system to completion on the loop and
// stops it. Executed as the loop's final command. With journaling on, the
// drain's terminal events stream into the WAL (via the engine hook), a
// drain marker and a final checkpoint make the log self-contained —
// recovery after a graceful shutdown restores the checkpoint and replays
// nothing — and the writer closes with a last fsync.
func (sh *shard) drainCmd() {
	sh.final = sh.eng.Drain()
	if sh.jw != nil {
		_ = sh.jw.Append(&journal.Record{Kind: journal.KindDrain, Tick: sh.eng.Now()})
		_ = sh.jw.Commit()
		_ = sh.checkpoint(true)
		_ = sh.jw.Close()
	}
	sh.stopped = true
}
