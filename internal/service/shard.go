package service

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/telemetry"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// shard is one admission shard: a shard-scoped open engine that one
// goroutine at a time may touch — the holder of the shard's turn — plus the
// shard's operational counters and its lock-free router view. It is the old
// single-engine controller's concurrency unit, multiplied: all determinism
// arguments (decisions are a pure function of the shard's request sequence)
// hold per shard.
type shard struct {
	id      int
	c       *Controller
	eng     *sim.Engine
	view    *router.ShardView
	metrics *Metrics
	// rec is the shard's trace recorder (always non-nil; inert when
	// sampling is off).
	rec *telemetry.ShardRecorder

	// turn is the shard's single-writer token, a 1-slot channel: whoever
	// has a value in it holds the shard (do). Blocked senders queue in
	// arrival order, so operations run in submission order.
	turn chan struct{}

	// liveMachines/removedMachines mirror the engine's membership census
	// for lock-free scrapes; the turn's holder refreshes them after every
	// membership operation (publishMembership).
	liveMachines    atomic.Int64
	removedMachines atomic.Int64

	// jw is the shard's write-ahead log; nil when journaling is off.
	// Written only under the turn (and by recovery, before New returns);
	// the writer synchronizes its background syncer internally.
	jw *journal.Writer
	// cpBuf is the storage checkpoint encodes into, spanBuf the spans
	// journalTrace encodes from, both reused.
	cpBuf   []byte
	spanBuf []journal.SpanRec
	// journalFailed mirrors the writer's latched error (set by emit, commit
	// and drainCmd under the turn) so HTTP goroutines can read it: once
	// true the shard refuses every state change with ErrJournalFailed.
	journalFailed atomic.Bool
	// dig sums what the open commit's inputs derived: commit logs it, a walk
	// (step) matches it. sinceCheckpoint counts the arrivals admitted since
	// the last checkpoint, live or replayed: the cadence commitJournal reads.
	dig             journal.Digest
	sinceCheckpoint int
	// replay marks a shard walking a log (openReplay's offline one, or the
	// served one while it recovers): emit also queues the records it derives
	// in gen, for the walk to name should the digests differ. commitSeq is
	// the sequence number of the walked commit's first arrive (-1 before
	// one), which names the commit.
	replay    bool
	gen       []journal.Record
	commitSeq int64

	// Turn-owned state: touched only by the holder of the turn.
	stopped bool
	final   *sim.Result
	// watermark is the highest cluster-wide sequence number this shard has
	// decided (-1 before the first decision). Journal checkpoints persist
	// it so a restart never reissues a sequence number.
	watermark int64
	// recovered holds the ID-carrying sub-batches journal recovery
	// re-derived; initJournal drains it into the dedup window before New
	// returns.
	recovered []recoveredBatch
}

// do runs fn on the caller's goroutine holding the shard's turn: it waits
// for the turn behind the callers already waiting (giving up when ctx
// ends), runs fn and gives the turn back. Once the drain has stopped the
// shard it returns ErrDraining without running fn.
func (sh *shard) do(ctx context.Context, fn func()) error {
	select {
	case sh.turn <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if sh.stopped {
		<-sh.turn
		return ErrDraining
	}
	ran := false
	defer func() {
		if !ran {
			if v := recover(); v != nil {
				fatalPanic(sh.id, v)
			}
		}
		<-sh.turn
		if len(sh.turn) != 0 {
			// The turn went straight to a waiter, readied onto this P's
			// run-next slot, where it would wait — the shard idle — until
			// this goroutine blocks or another P steals it. Yield to it.
			runtime.Gosched()
		}
	}()
	fn()
	ran = true
	return nil
}

// fatalPanic ends the process over a panic raised while holding shard id's
// turn. The holder is usually an HTTP handler's goroutine, and net/http
// recovers a handler's panic and keeps serving — here, on a shard left
// halfway through an operation. A panic on a fresh goroutine, which nothing
// recovers, ends the process instead; its message carries the original
// stack.
func fatalPanic(id int, v any) {
	msg := fmt.Sprintf("service: shard %d panicked: %v\n\n%s", id, v, debug.Stack())
	go func() { panic(msg) }()
	select {}
}

// decide admits the request tasks selected by idxs (nil = all, the
// single-shard fast path) through this shard's engine, writing each
// decision into its request slot of resp. The task in request slot i takes
// cluster-wide sequence number base+i; traces the sampled in-flight traces
// (nil when tracing is off — no clock is then read for telemetry). Returns
// the shard clock after the sub-batch, and ErrDraining if the shard drained
// before its turn came.
func (sh *shard) decide(ctx context.Context, req *DecideRequest, resp *DecideResponse, idxs []int, base int64, traces []*telemetry.Trace) (pmf.Tick, error) {
	var now pmf.Tick
	var ferr error // why the turn refused or failed the sub-batch
	n := len(idxs)
	if idxs == nil {
		n = len(req.Tasks)
	}
	var submit time.Time
	if traces != nil {
		// Route span: origin (request receipt) to asking for the turn.
		submit = time.Now()
		markRoute(traces, idxs, n, submit)
	}
	err := sh.do(ctx, func() {
		if ferr = ctx.Err(); ferr != nil {
			// The caller gave up while waiting: leave the engine untouched so
			// the failed request has no effect.
			return
		}
		if sh.journalFailed.Load() {
			// Fail-stop: before the batch record, before any feed.
			ferr = ErrJournalFailed
			return
		}
		if sh.eng.LiveMachines() == 0 {
			// Degraded: every machine of this shard has been removed.
			// Admitting would defer the tasks into a batch nothing can ever
			// run — shed the sub-batch instead (429 on the wire) and let the
			// client retry after a revive or an add.
			sh.metrics.shed.Add(1)
			ferr = ErrShardDegraded
			return
		}
		if traces != nil {
			// Wait span: asking for the turn until holding it.
			markSpans(traces, idxs, n, telemetry.StageWait, submit, time.Now())
		}
		sh.metrics.requests.Add(1)
		// The batch boundary carries the request's idempotent decision ID
		// (empty when the client sent none); recovery re-seeds the dedup
		// window from it.
		sh.emit(&journal.Record{Kind: journal.KindBatch, NTasks: int32(n), ID: req.DecisionID})
		eachIdx(idxs, n, func(i int) {
			spec := &req.Tasks[i]
			var a *telemetry.Trace
			if traces != nil {
				a = traces[i]
			}
			task := sh.c.makeTask(spec, int(base)+i)
			// The arrive record precedes the feed so the terminal events the
			// feed triggers (via the engine hook) land after it in the log.
			rec := arriveRecord(&task, spec.ID)
			sh.emitTimed(&rec, a)
			resp.Decisions[i] = sh.admit(&task, spec.ID, a)
		})
		if sh.jw != nil {
			// Durability before acknowledgement: the sub-batch is committed
			// (and fsynced, under SyncAlways) before the client sees it. A
			// journal failure fails the request — the decisions happened, but
			// the service must not keep acking onto a log losing writes.
			if traces != nil {
				cs := time.Now()
				ferr = sh.commitJournal()
				extendSpans(traces, idxs, n, telemetry.StageJournal, cs, time.Now())
			} else {
				ferr = sh.commitJournal()
			}
		}
		now = sh.eng.Now()
		if traces != nil && ferr == nil {
			sh.finishTraces(resp, idxs, n, traces)
		}
	})
	if err != nil {
		return 0, err
	}
	if ferr != nil {
		return 0, ferr
	}
	return now, nil
}

// admit is the one place an arrival changes a shard: the live decide calls it
// on the task it just logged, apply — for crash recovery and offline replay
// — on arriveTask of the record it read. It feeds the engine, assembles the
// wire decision, folds the outcome into the router view and the shard's
// counters, emits the derived decision record, advances the watermark and
// counts the arrival for the checkpoint cadence — so a recovered or
// replayed shard lands where the live one stood because it ran the same
// statements, not a copy of them. id is the client's task
// label; a is the sampled in-flight trace (nil when unsampled, and always
// nil off the live path). The engine copies task in, so it may be storage
// the caller reuses.
func (sh *shard) admit(task *workload.Task, id string, a *telemetry.Trace) Decision {
	var feedStart time.Time
	if a != nil {
		// Publish the trace to nested instrumentation (TimedPolicy carves
		// the dropper span out of the feed).
		sh.rec.Begin(a)
		feedStart = time.Now()
	}
	ts := sh.eng.Feed(task)
	if a != nil {
		a.Mark(telemetry.StageCalculus, feedStart, time.Now())
		sh.rec.End()
	}
	// The wire decision: the action the task's status encodes and, when
	// mapped, the machine's matrix-wide index (arithmetic on the shard-local
	// one, sim.Cluster.Global) and name. A shard engine carries every
	// machine's own name — partitioning re-indexes specs and nothing else,
	// and an add names what it adds — so neither needs a lookup table.
	d := Decision{ID: id, Seq: task.ID, Shard: sh.id, Machine: -1, Action: actionOf(ts.Status)}
	if d.Action == ActionMap {
		d.Machine = sh.c.cl.Global(sh.id, ts.Machine)
		d.MachineName = sh.eng.Machines()[ts.Machine].Spec.Name
	}
	seq := int64(task.ID)
	sh.eng.ObserveDecision(sh.view, ts)
	sh.metrics.Count(d.Action)
	rec := decisionRecord(seq, d.Action, ts.Machine, sh.eng.Now())
	sh.emitTimed(&rec, a)
	if seq > sh.watermark {
		sh.watermark = seq
	}
	sh.sinceCheckpoint++
	return d
}

// emit is the one exit of every journal record a shard produces (batch,
// arrive, decision, terminal event, membership, drain, digest, trace). A
// derived record — a decision or terminal event — is folded into the open
// commit's digest, on a served shard and on one walking a log (which also
// queues it for naming); any other record is appended to a served shard's
// log (the writer opens only after recovery's walk). An unjournaled shard
// keeps nothing. A method rather than a func value so the records callers
// build stay on their stacks. A failed append latches journalFailed; the
// sub-batch's commit then fails the request.
func (sh *shard) emit(rec *journal.Record) {
	switch {
	case rec.Kind != journal.KindDecision && rec.Kind != journal.KindEvent:
		if sh.jw != nil && sh.jw.Append(rec) != nil {
			sh.journalFailed.Store(true)
		}
	case sh.jw != nil || sh.replay:
		sh.dig.Fold(rec)
		if sh.replay {
			sh.gen = append(sh.gen, *rec)
		}
	}
}

// emitTimed is emit with the append attributed to the journal span of the
// sampled trace a (nil when unsampled; only a journaling shard has a
// journal span).
func (sh *shard) emitTimed(rec *journal.Record, a *telemetry.Trace) {
	if a == nil || sh.jw == nil {
		sh.emit(rec)
		return
	}
	js := time.Now()
	sh.emit(rec)
	a.Extend(telemetry.StageJournal, js, time.Now())
}

// hookEngine routes the engine's terminal transitions (completion,
// failure, reactive/proactive drop) into emit. Installed once, at build,
// for every shard: the hook runs inside feeds, membership operations and
// drains, so on a served shard the appends are single-writer like every
// other journal write. The record copies the fields it needs: the engine
// reuses the state once the hook returns.
func (sh *shard) hookEngine() {
	sh.eng.SetJournal(func(ts *sim.TaskState, now pmf.Tick) {
		sh.emit(&journal.Record{
			Kind:   journal.KindEvent,
			Seq:    int64(ts.Task.ID),
			Action: uint8(ts.Status),
			Tick:   now,
		})
	})
}

// eachIdx calls fn on every request slot of the sub-batch idxs selects
// (nil = the first n slots, the single-shard fast path).
func eachIdx(idxs []int, n int, fn func(i int)) {
	if idxs == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	for _, i := range idxs {
		fn(i)
	}
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

// snapshot reads the shard's live engine state under its turn; names[i]
// is the name of snap.Machines[i], which is not on the wire.
func (sh *shard) snapshot(ctx context.Context) (snap ShardSnapshot, names []string, err error) {
	err = sh.do(ctx, func() {
		snap = ShardSnapshot{
			Shard:        sh.id,
			Now:          sh.eng.Now(),
			Live:         sh.eng.LiveCounts(),
			QueueDepths:  sh.eng.QueueDepths(),
			LiveMachines: sh.eng.LiveMachines(),
			SeqWatermark: sh.watermark,
		}
		for l, m := range sh.eng.Machines() {
			snap.Machines = append(snap.Machines, sh.c.cl.Global(sh.id, l))
			names = append(names, m.Spec.Name)
		}
		for _, ri := range sh.eng.RemovedMachines() {
			snap.Removed = append(snap.Removed, sh.c.cl.Global(sh.id, ri))
		}
	})
	if err != nil {
		return ShardSnapshot{}, nil, err
	}
	// Lock-free annotations: router view and shard counters.
	nt := sh.c.matrix.NumTaskTypes()
	snap.Robustness = make([]float64, nt)
	for class := 0; class < nt; class++ {
		snap.Robustness[class] = sh.view.ClassRobustness(class)
	}
	snap.Requests = sh.metrics.requests.Load()
	snap.Mapped = sh.metrics.mapped.Load()
	snap.Deferred = sh.metrics.deferred.Load()
	snap.Dropped = sh.metrics.dropped.Load()
	return snap, names, nil
}

// drain runs the shard's virtual system to completion — the terminal
// events stream out through the engine hook. Not reusable afterwards.
func (sh *shard) drain() {
	sh.final = sh.eng.Drain()
}

// drainCmd drains the shard and stops it: the last operation Drain runs
// under the shard's turn. The drain marker is an input, logged before the
// events it causes. With journaling on, a final checkpoint makes the log
// self-contained — recovery after a graceful shutdown restores it and
// replays nothing; killed before it, it replays the marker and drains again
// — and the writer closes with a last fsync. A log that fails any of the
// three fails the drain with ErrJournalFailed (sh.final is still set).
func (sh *shard) drainCmd() error {
	sh.emit(&journal.Record{Kind: journal.KindDrain, Tick: sh.eng.Now()})
	sh.drain()
	sh.stopped = true
	if sh.jw == nil {
		return nil
	}
	err := sh.commit()
	if err == nil {
		err = sh.checkpoint()
	}
	if cerr := sh.jw.Close(); err == nil {
		err = cerr
	}
	return sh.failJournal(err)
}
