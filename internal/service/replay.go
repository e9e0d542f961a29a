package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// Journal replay: crash recovery and cmd/hcreplay.
//
// The journal's input records (batch, arrive, membership, drain) are the
// ground truth: a shard is deterministic, so applying them to a shard built
// from the manifest re-derives every decision and terminal event. The log
// therefore keeps those only as one digest per commit, and the checkpoints
// are redundant by construction — which is exactly what makes the log
// auditable: replayLog recomputes the derived stream and fails on the first
// commit whose digest, or checkpoint whose state, the recomputation does
// not reproduce.
//
// There is one interpreter of input records (shard.apply) and one walk over
// a log (shard.replayLog), which also chooses where it starts. hcreplay
// -verify is the walk from the oldest start the log supports — genesis, or
// on a log the journal writer has trimmed the checkpoint just before its
// first segment — on a shard openReplay obtains from build, the constructor
// service.New serves from; hcreplay -decision is the same walk with the
// audited decision explained on the way; crash recovery is the same walk
// from the newest checkpoint but one on the shard about to be served
// (shard.recover). All three apply the records through the methods the live
// shard runs (see "One shard state machine" in the package doc), so replay
// == live and recovered == uninterrupted by construction, and all three
// match every digest and checkpoint they cross. What stays independent, and
// is what verification tests, is the comparison: the bytes on disk against
// a re-derivation.

// openReplay returns shard s of the controller a journal root's manifest
// pins, in replay mode: never served, no writer, emit folding every derived
// record into the shard's digest for matching. cold is build's.
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
	Shard int
	// Base is the checkpoint the walk starts from, taken as given: -1 for
	// genesis.
	Base    int
	Records int // logged records consumed
	Arrives int
	// Digests counts the commit digests matched, Derived the decisions and
	// terminal events re-derived under them.
	Digests     int
	Derived     int
	Checkpoints int // snapshots compared against the replayed state
	// Traces counts stage-timing trace records skipped: they carry
	// wall-clock observations replay cannot re-derive.
	Traces int
	// Membership counts membership records re-applied as replay inputs.
	Membership int
	// FinalSeqWatermark is the replayed shard's highest decided sequence.
	FinalSeqWatermark int64
}

// VerifyShard replays shard s's journal from the oldest start it supports
// (journal.Oldest) and proves the log self-consistent: every commit's
// digest must equal the digest of the decisions and terminal events the
// deterministic re-execution of its inputs derives, and every checkpoint
// after the start must equal the replayed state at its segment boundary. On
// a trimmed log the start is a checkpoint, taken as given. A commit a crash
// tore is not on the log (the journal drops it whole), so every commit that
// derived a record ends in its digest: derived records the log ends without
// a digest for are an error like any other disagreement.
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
		t := arriveTask(rec)
		return sh.admit(&t, rec.ID, nil), nil
	case journal.KindMembership:
		if err := sh.applyMembership(rec, nil); err != nil {
			return Decision{}, fmt.Errorf("membership replay: %w", err)
		}
	case journal.KindDrain:
		sh.drain()
	}
	return Decision{}, nil
}

// replayLog is the one walk over a shard's log, on a shard in replay mode.
// It starts from the newest checkpoint but one for recovery
// (journal.Recover), otherwise from the oldest start the log supports
// (journal.Oldest), restoring that checkpoint on the fresh shard. It hands
// every record to visit, which takes it through step itself (nil: step
// only), and compares every checkpoint it passes against the replayed
// state. Inputs precede their effects and commits are whole, so derived
// records the log ends without a digest for are an error.
func (sh *shard) replayLog(root string, recovery bool, visit func(*journal.Record, *VerifyStats) error) (*VerifyStats, error) {
	s := sh.id
	dir := ShardJournalDir(root, s)
	planner := journal.Oldest
	if recovery {
		planner = journal.Recover
	}
	plan, err := planner(dir)
	if err != nil {
		return nil, err
	}
	sh.commitSeq = -1
	if plan.Snapshot != nil {
		cp, err := decodeCheckpoint(plan.Snapshot)
		if err == nil {
			err = sh.restore(cp)
		}
		if err != nil {
			return nil, err
		}
	}

	st := &VerifyStats{Shard: s, Base: plan.SnapshotSeg}
	for _, seg := range plan.TailSegments {
		err := journal.ScanSegment(journal.SegmentPath(dir, seg), func(rec *journal.Record) error {
			if visit != nil {
				return visit(rec, st)
			}
			_, err := sh.step(rec, st)
			return err
		})
		if err != nil {
			return st, err
		}
		// Snapshot seg captures the state after every record of segment seg
		// (the writer rotates at the checkpoint): compare it field by field
		// against the replayed state at this exact boundary. An absent one is
		// no checkpoint. Any other restarts the cadence count, as writing it
		// did; a torn one is not a log defect — recovery falls back to an
		// older one and replays a longer tail.
		payload, err := journal.ReadSnapshotFile(journal.SnapshotPath(dir, seg))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		sh.sinceCheckpoint = 0
		if err != nil {
			continue
		}
		if err := sh.compareCheckpoint(payload, seg); err != nil {
			return st, err
		}
		st.Checkpoints++
	}

	if sh.dig.Len() > 0 {
		return st, fmt.Errorf("shard %d: %s: the log ends without the digest of the %d records its inputs derive: %s",
			s, sh.commitName(st), sh.dig.Len(), sh.derivedList())
	}
	st.FinalSeqWatermark = sh.watermark
	return st, nil
}

// errDigestMismatch marks a commit whose logged digest is not the digest
// of what replay derives from its inputs.
var errDigestMismatch = errors.New("digest mismatch")

// step takes one logged record on a shard walking its log: an input is
// applied (apply) and its decision returned, a digest is matched against
// the digest of what the inputs since the last one derived, a trace is
// skipped. A decision or event record is refused: the log holds those only
// as its commits' digests. A mismatch wraps errDigestMismatch and names the
// commit — its shard and first sequence number — and lists the records
// replay derived.
func (sh *shard) step(rec *journal.Record, st *VerifyStats) (Decision, error) {
	st.Records++
	switch rec.Kind {
	case journal.KindTrace:
		// Stage timings are wall-clock observations — replay cannot
		// re-derive them, so the walk skips them by design.
		st.Traces++
		return Decision{}, nil
	case journal.KindDigest:
		var err error
		if sh.dig.Len() == 0 || sh.dig.Sum() != rec.Digest {
			err = fmt.Errorf("shard %d: %s: %w: the log has %016x, replay derives %016x from %d records: %s",
				sh.id, sh.commitName(st), errDigestMismatch, rec.Digest, sh.dig.Sum(), sh.dig.Len(), sh.derivedList())
		} else {
			st.Digests++
			st.Derived += sh.dig.Len()
		}
		sh.dig.Reset()
		sh.gen = sh.gen[:0]
		sh.commitSeq = -1
		return Decision{}, err
	case journal.KindDecision, journal.KindEvent:
		return Decision{}, fmt.Errorf("shard %d: record %d (%s): the log holds what its inputs derive only as commit digests",
			sh.id, st.Records, rec.String())
	case journal.KindArrive:
		st.Arrives++
		if sh.commitSeq < 0 {
			sh.commitSeq = rec.Seq
		}
	case journal.KindMembership:
		st.Membership++
	}
	return sh.apply(rec)
}

// commitName names the commit a walk is in: by its first arrive's sequence
// number, or by the record the walk is at when it holds no arrive.
func (sh *shard) commitName(st *VerifyStats) string {
	if sh.commitSeq >= 0 {
		return fmt.Sprintf("commit from seq %d", sh.commitSeq)
	}
	return fmt.Sprintf("commit ending at record %d (no arrive)", st.Records)
}

// derivedList renders the records the walked commit's inputs derived.
func (sh *shard) derivedList() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range sh.gen {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(sh.gen[i].String())
	}
	b.WriteByte(']')
	return b.String()
}

// compareCheckpoint matches one checkpoint payload against the replayed
// state. The encoding is canonical, so the state matches exactly when the
// payload equals the replayed shard's own encoding, written into its
// checkpoint buffer. Only a mismatch decodes the payload, to name the
// shard-level field that differs, else the engine state.
func (sh *shard) compareCheckpoint(payload []byte, seg int) error {
	sh.cpBuf = sh.appendCheckpoint(sh.cpBuf[:0])
	if bytes.Equal(sh.cpBuf, payload) {
		return nil
	}
	s := sh.id
	cp, err := decodeCheckpoint(payload)
	if err != nil {
		return fmt.Errorf("shard %d: snapshot %d: %w", s, seg, err)
	}
	if cp.SeqWatermark != sh.watermark {
		return fmt.Errorf("shard %d: snapshot %d: watermark %d, replay at %d", s, seg, cp.SeqWatermark, sh.watermark)
	}
	m := sh.metrics
	req, mapped, deferred, dropped := m.requests.Load(), m.mapped.Load(), m.deferred.Load(), m.dropped.Load()
	if cp.Requests != req || cp.Mapped != mapped || cp.Deferred != deferred || cp.Dropped != dropped {
		return fmt.Errorf("shard %d: snapshot %d: counters (req %d map %d defer %d drop %d), replay (req %d map %d defer %d drop %d)",
			s, seg, cp.Requests, cp.Mapped, cp.Deferred, cp.Dropped, req, mapped, deferred, dropped)
	}
	for class, p := range cp.Robustness {
		if got := sh.view.ClassRobustness(class); got != p {
			return fmt.Errorf("shard %d: snapshot %d: class %d robustness %g, replay %g", s, seg, class, p, got)
		}
	}
	return fmt.Errorf("shard %d: snapshot %d: engine state diverged from replay", s, seg)
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

// AuditDecision walks shard s's journal as hcreplay -verify does and
// explains decision seq on the way: the queue state the admission saw, the
// Eq. 1 completion-time forecast of every queued task and of the arriving
// candidate on every machine, the dropping policy's verdict over each
// queue, the re-derived decision and the records its admission derived,
// whether the digest its commit logged matches what replay derives from the
// commit's inputs, and the decision's recorded stage timings when it was
// sampled. verbose additionally prints the candidate's full completion-time
// PMFs. The walk is shard.replayLog's, to the end of the log: a commit or
// checkpoint anywhere in the log that does not re-derive fails the audit,
// as it refuses a restart. On a trimmed log a decision older than the
// retained segments is refused with the oldest one that can be audited.
//
// Machines are printed under their matrix-wide index, runtime-added ones
// included: it is arithmetic on what the manifest and the shard's own log
// pin (sim.Cluster.Global), so it is the one the live server answered with.
func AuditDecision(w io.Writer, root string, s int, seq int64, verbose bool) error {
	sh, err := openReplay(root, s, false)
	if err != nil {
		return err
	}
	oldest := int64(-1) // the first arrive the walk holds
	reached, digested := false, false
	var trace *journal.Record // the decision's stage timings, if it was sampled
	st, err := sh.replayLog(root, false, func(rec *journal.Record, st *VerifyStats) error {
		if rec.Kind == journal.KindArrive && oldest < 0 {
			oldest = rec.Seq
		}
		switch {
		case rec.Kind == journal.KindArrive && rec.Seq == seq:
			reached = true
			return sh.explain(w, root, rec, st, verbose)
		case reached && !digested && rec.Kind == journal.KindDigest:
			digested = true
			commit, derived := sh.commitName(st), sh.dig.Len()
			if _, err := sh.step(rec, st); err != nil {
				fmt.Fprintf(w, "commit digest:     differs: %v\n", err)
				return err
			}
			fmt.Fprintf(w, "commit digest:     matched (%s, %d records derived)\n", commit, derived)
			return nil
		case rec.Kind == journal.KindTrace && rec.Seq == seq:
			// The trace rides the commit after the decision's; the scan
			// reuses the record it hands over, so it is cloned.
			c := rec.Clone()
			trace = &c
		}
		_, err := sh.step(rec, st)
		return err
	})
	switch {
	case err != nil:
		return err
	case !reached && st.Base >= 0 && oldest >= 0 && seq < oldest:
		return fmt.Errorf("service: decision %d precedes the retained log of shard %d in %s (oldest auditable sequence number: %d)", seq, s, root, oldest)
	case !reached:
		return fmt.Errorf("service: no arrive record with seq %d in shard %d of %s", seq, s, root)
	}

	// Stage timings of the live decision, if it was sampled: the one part
	// of the audit replay cannot re-derive (wall clocks do not replay).
	if trace == nil {
		fmt.Fprintf(w, "recorded stage timings: none (trace sampling off, seq unsampled, or the trace record was not committed)\n")
		return nil
	}
	fmt.Fprintf(w, "recorded stage timings (offsets from request receipt):\n")
	for _, sp := range trace.Spans {
		fmt.Fprintf(w, "  %-8s %12s  [+%s, +%s]\n",
			telemetry.Stage(sp.Stage).String(),
			time.Duration(sp.EndNS-sp.StartNS),
			time.Duration(sp.StartNS),
			time.Duration(sp.EndNS))
	}
	return nil
}

// explain prints the state the admission of the arrive rec saw: the clock,
// every machine's queue with the Eq. 1 forecasts of its tasks and of the
// candidate appended at its tail, and the dropping policy's verdict. It
// advances the engine to the arrival, as the admission does first, without
// feeding; what the advance derives is the admission's and leaves through
// emit as the feed's would. It then steps rec and prints the re-derived
// decision and the records the admission derived.
func (sh *shard) explain(w io.Writer, root string, rec *journal.Record, st *VerifyStats, verbose bool) error {
	eng, cfg, s := sh.eng, sh.c.cfg, sh.id
	from := len(sh.gen)
	t := arriveTask(rec)
	fmt.Fprintf(w, "decision seq %d (shard %d of %s)\n", rec.Seq, s, root)
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

	d, err := sh.step(rec, st)
	if err != nil {
		return err
	}
	if d.Action == ActionMap {
		fmt.Fprintf(w, "replayed decision: %s -> machine %d %q\n", d.Action, d.Machine, d.MachineName)
	} else {
		fmt.Fprintf(w, "replayed decision: %s\n", d.Action)
	}
	for _, r := range sh.gen[from:] {
		fmt.Fprintf(w, "derived:           %s\n", r.String())
	}
	return nil
}
