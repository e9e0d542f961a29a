package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// Journal replay: crash recovery and cmd/hcreplay.
//
// The journal's input records (batch, arrive, membership, drain) are the
// ground truth: a shard is deterministic, so applying them to a shard built
// from the manifest re-derives every decision and terminal event. The
// logged decision/event records and the checkpoints are therefore redundant
// by construction — which is exactly what makes the log auditable:
// replayLog recomputes the derived stream and fails on the first record
// where the recomputation and the recording disagree.
//
// There is one interpreter of input records (shard.apply), one choice of
// where a walk starts (shard.startLog) and one walk over a log
// (shard.replayLog). hcreplay -verify is the walk from the oldest start the
// log supports — genesis, or on a log the journal writer has trimmed the
// checkpoint just before its first segment — on a shard openReplay obtains
// from build, the constructor service.New serves from; crash recovery is
// the same walk from the newest checkpoint but one on the shard about to be
// served (shard.recover); both apply the records through the methods the
// live shard runs (see "One shard state machine" in the package doc), so
// replay == live and recovered == uninterrupted by construction. What
// stays independent, and is what verification tests, is the comparison:
// the bytes on disk against a re-derivation.

// robustnessTol bounds the acceptable divergence when comparing replayed
// router EWMAs against checkpointed ones. Both sides run the same float
// operations in the same order, so anything beyond noise is a real
// divergence.
const robustnessTol = 1e-9

// openReplay returns shard s of the controller a journal root's manifest
// pins, in replay mode: never served, no writer, emit queueing every
// derived record in shard.gen for matching. cold is build's.
func openReplay(root string, s int, cold bool) (*shard, error) {
	man, err := LoadManifest(root)
	if err != nil {
		return nil, err
	}
	if s < 0 || s >= man.Shards {
		return nil, fmt.Errorf("service: shard %d out of range [0,%d)", s, man.Shards)
	}
	c, err := build(man.config(), cold)
	if err != nil {
		return nil, err
	}
	c.shards[s].replay = true
	return c.shards[s], nil
}

// VerifyStats summarizes one walk over a shard's log (replayLog): all the
// log retains under hcreplay -verify, the tail journal.Recover plans at
// recovery.
type VerifyStats struct {
	Shard       int
	Records     int // logged records consumed
	Arrives     int
	Derived     int // logged decision/event records matched
	Checkpoints int // snapshots compared against the replayed state
	// Traces counts stage-timing trace records skipped: they carry
	// wall-clock observations replay cannot re-derive.
	Traces int
	// Membership counts membership records re-applied as replay inputs.
	Membership int
	// Unflushed counts derived records the replay produced past the end of
	// the log — the suffix a crash cut off before it was committed.
	Unflushed int
	// FinalSeqWatermark is the replayed shard's highest decided sequence.
	FinalSeqWatermark int64
}

// VerifyShard replays shard s's journal from the oldest start it supports
// (journal.Oldest) and proves the log self-consistent: every logged
// decision and terminal event must equal the one the deterministic
// re-execution derives, and every checkpoint after the start
// must equal the replayed state at its segment boundary. On a trimmed log
// the start is a checkpoint, taken as given. A truncated tail (crash) is
// tolerated — the log is then a prefix of the derived stream — but any
// interior disagreement is an error.
func VerifyShard(root string, s int) (*VerifyStats, error) {
	sh, err := openReplay(root, s, false)
	if err != nil {
		return nil, err
	}
	return sh.replayLog(root, false, nil)
}

// apply is the one interpreter of the journal's input records: it changes
// the shard as the live shard did when it wrote rec, through the same
// methods, and returns the wire decision of an arrive. The derived records
// this produces leave through emit.
func (sh *shard) apply(rec *journal.Record) (Decision, error) {
	switch rec.Kind {
	case journal.KindBatch:
		sh.metrics.requests.Add(1)
	case journal.KindArrive:
		return sh.admit(arriveTask(rec), rec.ID, nil), nil
	case journal.KindMembership:
		if err := sh.applyMembership(rec, nil); err != nil {
			return Decision{}, fmt.Errorf("membership replay: %w", err)
		}
	case journal.KindDrain:
		sh.drain()
	}
	return Decision{}, nil
}

// startLog chooses where a walk over the shard's log starts and restores
// that state on the fresh shard: for recovery the newest checkpoint but one
// (journal.Recover), otherwise the oldest start the log supports
// (journal.Oldest). It returns the plan whose tail the walk reads.
func (sh *shard) startLog(root string, recovery bool) (*journal.Recovery, error) {
	planner := journal.Oldest
	if recovery {
		planner = journal.Recover
	}
	plan, err := planner(ShardJournalDir(root, sh.id))
	if err != nil {
		return nil, err
	}
	if plan.Snapshot != nil {
		if err := sh.restore(plan.Snapshot); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// replayLog is the one walk over a shard's log, on a shard in replay mode
// (emit queues what the shard derives in sh.gen), from where startLog puts
// it: the oldest start (VerifyShard) or the recovery base. It applies every
// input record through apply, calling visit (when non-nil) with the record
// and apply's decision; matches every logged decision and event against the
// derived stream; and compares every checkpoint it passes against the
// replayed state. Inputs precede their effects, so derived records past the
// end of the log are the suffix a crash cut off (Unflushed); logged ones the
// inputs before them cannot explain are an error.
func (sh *shard) replayLog(root string, recovery bool, visit func(*journal.Record, Decision)) (*VerifyStats, error) {
	s := sh.id
	dir := ShardJournalDir(root, s)
	plan, err := sh.startLog(root, recovery)
	if err != nil {
		return nil, err
	}

	st := &VerifyStats{Shard: s}
	var logged []journal.Record // unmatched logged derived records
	match := func() error {
		for len(logged) > 0 && len(sh.gen) > 0 {
			want, got := logged[0], sh.gen[0]
			logged, sh.gen = logged[1:], sh.gen[1:]
			if want.Kind != got.Kind || want.Seq != got.Seq || want.Tick != got.Tick ||
				want.Action != got.Action || want.Machine != got.Machine {
				return fmt.Errorf("shard %d: record %d: log has %s, replay derives %s",
					s, st.Records, want.String(), got.String())
			}
			st.Derived++
		}
		return nil
	}

	for _, seg := range plan.TailSegments {
		err := journal.ScanSegment(journal.SegmentPath(dir, seg), func(rec *journal.Record) error {
			st.Records++
			switch rec.Kind {
			case journal.KindTrace:
				// Stage timings are wall-clock observations — replay cannot
				// re-derive them, so the walk skips them by design.
				st.Traces++
				return nil
			case journal.KindDecision, journal.KindEvent:
				logged = append(logged, *rec)
				return match()
			case journal.KindArrive:
				st.Arrives++
			case journal.KindMembership:
				st.Membership++
			}
			if len(logged) > 0 { // an input precedes every record it causes
				return fmt.Errorf("shard %d: record %d (%s): the log holds %s before it, which nothing before derives",
					s, st.Records, rec.String(), logged[0].String())
			}
			d, err := sh.apply(rec)
			if err != nil {
				return err
			}
			if visit != nil {
				visit(rec, d)
			}
			return match()
		})
		if err != nil {
			return st, err
		}
		// Snapshot seg captures the state after every record of segment seg
		// (the writer rotates at the checkpoint): compare it field by field
		// against the replayed state at this exact boundary. An absent one is
		// no checkpoint, and a torn one is not a log defect — recovery falls
		// back to an older one and replays a longer tail.
		payload, err := journal.ReadSnapshotFile(journal.SnapshotPath(dir, seg))
		if err != nil {
			continue
		}
		if err := sh.compareCheckpoint(payload, seg); err != nil {
			return st, err
		}
		st.Checkpoints++
	}

	// A crash may have cut the log after the engine advanced: derived
	// records the replay produced but the log never committed are the
	// expected torn suffix. Logged records the replay cannot explain are
	// not.
	if len(logged) > 0 {
		return st, fmt.Errorf("shard %d: %d logged records beyond what replay derives (first: %s)",
			s, len(logged), logged[0].String())
	}
	st.Unflushed = len(sh.gen)
	st.FinalSeqWatermark = sh.watermark
	return st, nil
}

// compareCheckpoint matches one checkpoint payload against the replayed
// state. Engine snapshots are compared through their canonical JSON so
// both sides share one serialization (the stored one already did the
// round trip).
func (sh *shard) compareCheckpoint(payload []byte, seg int) error {
	s := sh.id
	var cp ShardCheckpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return fmt.Errorf("shard %d: snapshot %d: %w", s, seg, err)
	}
	if cp.SeqWatermark != sh.watermark {
		return fmt.Errorf("shard %d: snapshot %d: watermark %d, replay at %d", s, seg, cp.SeqWatermark, sh.watermark)
	}
	m := sh.metrics
	if cp.Requests != m.requests.Load() || cp.Mapped != m.mapped.Load() || cp.Deferred != m.deferred.Load() || cp.Dropped != m.dropped.Load() {
		return fmt.Errorf("shard %d: snapshot %d: counters (req %d map %d defer %d drop %d), replay (req %d map %d defer %d drop %d)",
			s, seg, cp.Requests, cp.Mapped, cp.Deferred, cp.Dropped, m.requests.Load(), m.mapped.Load(), m.deferred.Load(), m.dropped.Load())
	}
	for class, p := range cp.Robustness {
		if got := sh.view.ClassRobustness(class); math.Abs(got-p) > robustnessTol {
			return fmt.Errorf("shard %d: snapshot %d: class %d robustness %g, replay %g", s, seg, class, p, got)
		}
	}
	if cp.Engine == nil {
		return fmt.Errorf("shard %d: snapshot %d: no engine snapshot", s, seg)
	}
	want, err := json.Marshal(cp.Engine)
	if err != nil {
		return err
	}
	got, err := json.Marshal(sh.eng.Snapshot())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("shard %d: snapshot %d: engine state diverged from replay", s, seg)
	}
	return nil
}

// VerifyAll verifies every shard of a journal root, in shard order.
func VerifyAll(root string) ([]*VerifyStats, error) {
	man, err := LoadManifest(root)
	if err != nil {
		return nil, err
	}
	out := make([]*VerifyStats, 0, man.Shards)
	for s := 0; s < man.Shards; s++ {
		st, err := VerifyShard(root, s)
		if st != nil {
			out = append(out, st)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// errAuditStop aborts the audit's replay scan once the target decision is
// reached.
var errAuditStop = errors.New("audit: stop")

// AuditDecision replays shard s's journal up to (but not including)
// decision seq, then explains that decision: the queue state the admission
// saw, the Eq. 1 completion-time forecast of every queued task and of the
// arriving candidate on every machine, the dropping policy's verdict over
// each queue, and finally the re-derived decision next to the logged one.
// verbose additionally prints the candidate's full completion-time PMFs.
// The replay starts where hcreplay -verify's does (shard.startLog), so on a
// trimmed log a decision older than the retained segments is refused with
// the oldest one that can be audited.
//
// Machines are printed under their matrix-wide index, runtime-added ones
// included: it is arithmetic on what the manifest and the shard's own log
// pin (sim.Cluster.Global), so it is the one the live server answered with.
func AuditDecision(w io.Writer, root string, s int, seq int64, verbose bool) error {
	sh, err := openReplay(root, s, false)
	if err != nil {
		return err
	}
	eng, cfg := sh.eng, sh.c.cfg
	dir := ShardJournalDir(root, s)
	plan, err := sh.startLog(root, false)
	if err != nil {
		return err
	}

	// First pass: find the target arrive and capture the logged derived
	// records for it (they follow the arrive in the log), plus its stage
	// trace if the decision was sampled (trace records trail by a commit).
	var target *journal.Record
	var loggedDecision *journal.Record
	var loggedTrace *journal.Record
	var loggedEvents []journal.Record
	oldest := int64(-1) // the first arrive the walk holds
	err = plan.Replay(dir, func(rec *journal.Record) error {
		switch rec.Kind {
		case journal.KindArrive:
			if oldest < 0 {
				oldest = rec.Seq
			}
			if rec.Seq == seq {
				c := *rec
				target = &c
			}
		case journal.KindDecision:
			if rec.Seq == seq {
				c := *rec
				loggedDecision = &c
			}
		case journal.KindTrace:
			if rec.Seq == seq {
				c := *rec
				loggedTrace = &c
			}
		case journal.KindEvent:
			if target != nil && loggedDecision == nil {
				// Terminal events logged between the arrive and its decision:
				// the side effects of admitting this task.
				loggedEvents = append(loggedEvents, *rec)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if target == nil {
		if plan.SnapshotSeg >= 0 && oldest >= 0 && seq < oldest {
			return fmt.Errorf("service: decision %d precedes the retained log of shard %d in %s (oldest auditable sequence number: %d)", seq, s, root, oldest)
		}
		return fmt.Errorf("service: no arrive record with seq %d in shard %d of %s", seq, s, root)
	}

	// Second pass: apply every record before the target arrive, so the
	// engine holds the exact pre-decision state.
	err = plan.Replay(dir, func(rec *journal.Record) error {
		if rec.Kind == journal.KindArrive && rec.Seq == seq {
			return errAuditStop
		}
		_, err := sh.apply(rec)
		return err
	})
	if err != nil && !errors.Is(err, errAuditStop) {
		return err
	}

	t := arriveTask(target)
	fmt.Fprintf(w, "decision seq %d (shard %d of %s)\n", seq, s, root)
	fmt.Fprintf(w, "task: type=%d arrival=%d deadline=%d exec_by_type=%v\n", t.Type, t.Arrival, t.Deadline, t.ExecByType)

	// The admission pipeline advances the clock to the arrival, runs the
	// reactive sweep and the mapping event; advancing here (without feeding)
	// exposes the queue state the dropper and mapper then consulted.
	eng.AdvanceTo(t.Arrival)
	now := eng.Now()
	fmt.Fprintf(w, "clock at decision: %d\n", now)

	dropper, err := core.PolicyFromSpec(cfg.Dropper)
	if err != nil {
		return err
	}
	live := eng.LiveCounts()
	// Live machines only: removed capacity advertises no slots, so it is
	// out of the pressure denominator (matching the engine's proactive
	// sweep under churn).
	totalSlots := cfg.QueueCap * eng.LiveMachines()
	pressure := 0.0
	if totalSlots > 0 {
		pressure = float64(live.Batch) / float64(totalSlots)
	}
	calc := eng.Calc()
	out := make(map[int]bool)
	for _, ri := range eng.RemovedMachines() {
		out[ri] = true
	}

	fmt.Fprintf(w, "queues and Eq. 1 forecasts (deferred batch %d, pressure %.3f):\n", live.Batch, pressure)
	for i, m := range eng.Machines() {
		mt := m.Spec.Type
		g := sh.c.cl.Global(s, i)
		if out[i] {
			fmt.Fprintf(w, "  machine %d %q (local %d): removed from the live set\n", g, m.Spec.Name, i)
			continue
		}
		q := eng.CoreQueue(i)
		fmt.Fprintf(w, "  machine %d %q (local %d):\n", g, m.Spec.Name, i)
		probs := calc.SuccessProbs(mt, now, q)
		for j, qt := range q {
			state := "pending"
			if qt.Running {
				state = fmt.Sprintf("running %d ticks", qt.Elapsed)
			}
			fmt.Fprintf(w, "    slot %d: type=%d deadline=%d %s  P(on time)=%.4f\n", j, qt.Type, qt.Deadline, state, probs[j])
		}
		// The candidate appended at the tail: its Eq. 1 completion-time PMF
		// chained over the queue, and the Eq. 2 mass before its deadline.
		cq := append(append([]core.QueueTask(nil), q...), core.QueueTask{Type: t.Type, Deadline: t.Deadline})
		cs := calc.CompletionPMFs(mt, now, cq)
		cand := cs[len(cs)-1]
		fmt.Fprintf(w, "    candidate: P(on time)=%.4f mean=%.1f span=[%d,%d]\n",
			cand.MassBefore(t.Deadline), cand.Mean(), cand.Min(), cand.Max())
		if verbose {
			fmt.Fprintf(w, "    candidate PMF: %s\n", cand.String())
		}
		verdict := dropper.Decide(&core.Context{
			Calc: calc, Machine: mt, Now: now, Queue: q,
			BatchPressure: pressure, Grace: cfg.Grace,
		})
		if len(verdict) > 0 {
			fmt.Fprintf(w, "    dropper %q would drop slots %v\n", dropper.Name(), verdict)
		}
	}

	// Re-derive the decision and set it against the logged record.
	d := sh.admit(t, "", nil)
	if d.Action == ActionMap {
		fmt.Fprintf(w, "replayed decision: %s -> machine %d %q\n", d.Action, d.Machine, d.MachineName)
	} else {
		fmt.Fprintf(w, "replayed decision: %s\n", d.Action)
	}
	for _, ev := range loggedEvents {
		fmt.Fprintf(w, "logged side effect: %s\n", ev.String())
	}
	if loggedDecision != nil {
		fmt.Fprintf(w, "logged decision:   %s\n", loggedDecision.String())
	} else {
		fmt.Fprintf(w, "logged decision:   (not committed — the log ends before it)\n")
	}

	// Stage timings of the live decision, if it was sampled: the one part
	// of the audit replay cannot re-derive (wall clocks do not replay).
	if loggedTrace != nil {
		fmt.Fprintf(w, "recorded stage timings (offsets from request receipt):\n")
		for _, sp := range loggedTrace.Spans {
			fmt.Fprintf(w, "  %-8s %12s  [+%s, +%s]\n",
				telemetry.Stage(sp.Stage).String(),
				time.Duration(sp.EndNS-sp.StartNS),
				time.Duration(sp.StartNS),
				time.Duration(sp.EndNS))
		}
	} else {
		fmt.Fprintf(w, "recorded stage timings: none (trace sampling off, seq unsampled, or the trace record was not committed)\n")
	}
	return nil
}
