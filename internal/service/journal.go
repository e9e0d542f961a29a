package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/telemetry"
	"github.com/hpcclab/taskdrop/internal/varint"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Journal layout under Config.JournalDir:
//
//	manifest.json      the served configuration (validated on reopen)
//	shard-000/         shard 0's segmented WAL + snapshots (internal/journal)
//	shard-001/         ...
//
// Every shard appends to its own WAL its inputs (batch boundaries,
// arrivals, membership changes, drain), each before the decisions and
// terminal task events it causes, and commits before acknowledging: one
// frame per commit, so the log holds every acknowledged operation whole and
// nothing of one a crash cut short. A shard engine is deterministic, so the
// inputs alone reconstruct its state by replay; decision and event records
// make it auditable (recovery and cmd/hcreplay re-derive them, see
// shard.replayLog).

// manifestName is the manifest file inside the journal root.
const manifestName = "manifest.json"

// Manifest pins the configuration a journal was written under. Reopening
// a journal with a different engine configuration would replay arrivals
// into a different system and silently diverge, so New refuses a manifest
// mismatch on every field. The routing policy is not pinned: it only
// affects how future arrivals are routed, never how logged ones replay
// (each shard's log is already routed). A manifest written with a "router"
// key still loads; the key is ignored.
type Manifest struct {
	Profile           string   `json:"profile"`
	Mapper            string   `json:"mapper"`
	Dropper           string   `json:"dropper"`
	Shards            int      `json:"shards"`
	QueueCap          int      `json:"queue_cap"`
	Grace             pmf.Tick `json:"grace"`
	DropOnArrival     bool     `json:"drop_on_arrival"`
	BoundaryExclusion int      `json:"boundary_exclusion"`
	// Partition is the machine partition the journal's server owned
	// ("k/K"; empty = the whole matrix). Matched: replaying a partition
	// log into a differently-partitioned system would feed arrivals to
	// machines the log's decisions never saw.
	Partition string `json:"partition,omitempty"`
}

// manifestFor derives the manifest of a resolved configuration.
func manifestFor(cfg Config) Manifest {
	return Manifest{
		Profile:           cfg.Profile,
		Mapper:            cfg.Mapper,
		Dropper:           cfg.Dropper,
		Shards:            cfg.Shards,
		QueueCap:          cfg.QueueCap,
		Grace:             cfg.Grace,
		DropOnArrival:     cfg.DropOnArrival,
		BoundaryExclusion: cfg.BoundaryExclusion,
		Partition:         cfg.Partition,
	}
}

// config is manifestFor's inverse: the Config a manifest pins, every other
// field left to its default. Offline replay hands it to build — the call
// the server made — so a replayed shard is assembled as the served one was.
// The router is the default: replay never routes, so a log stays
// replayable after the policy it was served under is renamed or removed.
func (m Manifest) config() Config {
	return Config{
		Profile:           m.Profile,
		Mapper:            m.Mapper,
		Dropper:           m.Dropper,
		Shards:            m.Shards,
		QueueCap:          m.QueueCap,
		Grace:             m.Grace,
		DropOnArrival:     m.DropOnArrival,
		BoundaryExclusion: m.BoundaryExclusion,
		Partition:         m.Partition,
	}
}

// LoadManifest reads the manifest of a journal root directory.
func LoadManifest(root string) (Manifest, error) {
	var m Manifest
	blob, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		return m, fmt.Errorf("service: journal manifest: %w", err)
	}
	return m, nil
}

// ShardJournalDir returns shard s's log directory under a journal root.
func ShardJournalDir(root string, s int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", s))
}

// ShardCheckpoint is the snapshot payload a shard writes at every journal
// checkpoint: the full engine snapshot plus the shard-level state replay
// cannot re-derive from the engine alone (sequence watermark, decision
// counters, router robustness EWMAs). The journal holds its binary encoding
// (appendCheckpoint), never JSON; the tags name the fields for diagnostics.
type ShardCheckpoint struct {
	Shard int `json:"shard"`
	// SeqWatermark is the highest cluster-wide sequence number the shard
	// has decided; a restart resumes issuing from max(watermarks)+1 so
	// decision sequence numbers are never reused.
	SeqWatermark int64 `json:"seq_watermark"`
	Requests     int64 `json:"requests"`
	Mapped       int64 `json:"mapped"`
	Deferred     int64 `json:"deferred"`
	Dropped      int64 `json:"dropped"`
	// Robustness[class] is the router view's per-class EWMA.
	Robustness []float64           `json:"robustness_by_class"`
	Engine     *sim.EngineSnapshot `json:"engine"`
}

// appendCheckpoint appends cp's encoding to buf: the engine snapshot's
// (sim.AppendSnapshot, whose leading byte is the format version, so one
// byte versions the whole checkpoint), then the shard fields as zigzag
// varints, then the robustness count and each class's 8 IEEE bytes. The
// form is canonical: decodeCheckpoint accepts exactly what this writes, so
// two checkpoints hold the same state exactly when their bytes are equal.
func appendCheckpoint(buf []byte, cp *ShardCheckpoint) []byte {
	buf = sim.AppendSnapshot(buf, cp.Engine)
	for _, n := range [...]int64{int64(cp.Shard), cp.SeqWatermark, cp.Requests, cp.Mapped, cp.Deferred, cp.Dropped} {
		buf = binary.AppendVarint(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(cp.Robustness)))
	for _, p := range cp.Robustness {
		buf = varint.AppendFloat(buf, p)
	}
	return buf
}

// decodeCheckpoint is appendCheckpoint's inverse. It refuses a checkpoint
// of another format by its leading byte — a JSON one, as builds before the
// binary form wrote, by name — and anything off the canonical form: an
// overlong varint, a count past the bytes left, a trailing byte. It never
// panics on hostile input.
func decodeCheckpoint(b []byte) (*ShardCheckpoint, error) {
	r := varint.NewReader(b, "service: checkpoint")
	cp := &ShardCheckpoint{Engine: sim.ReadSnapshot(&r)}
	cp.Shard = r.Int()
	cp.SeqWatermark, cp.Requests, cp.Mapped, cp.Deferred, cp.Dropped = r.Varint(), r.Varint(), r.Varint(), r.Varint(), r.Varint()
	if n := r.Count(math.MaxInt32, 8); n > 0 {
		cp.Robustness = make([]float64, n)
		for i := range cp.Robustness {
			cp.Robustness[i] = r.Float()
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return cp, nil
}

// journalFsyncBuckets are the upper bounds (seconds) of the fsync-latency
// histogram — fdatasync on a local disk lands between tens of
// microseconds (NVMe, battery-backed cache) and tens of milliseconds
// (spinning rust, saturated device).
var journalFsyncBuckets = []float64{
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3, 1,
}

// writeJournalMetrics renders the journal's series: totals read straight
// off the shard writers at scrape time, and the fsync histogram their
// callbacks feed (decide turns under SyncAlways, background syncers under
// SyncInterval).
func writeJournalMetrics(x *telemetry.Writer, c *Controller) {
	var records, bytes, fsyncs, snaps, lag, disk int64
	for _, sh := range c.shards {
		records += sh.jw.Appended()
		bytes += sh.jw.Bytes()
		fsyncs += sh.jw.Fsyncs()
		snaps += sh.jw.Checkpoints()
		lag += sh.jw.Lag()
		disk += sh.jw.DiskBytes()
	}
	x.Counter("taskdrop_journal_records_total", "Journal records appended across shards.").Int(records)
	x.Counter("taskdrop_journal_bytes_total", "Journal bytes appended across shards.").Int(bytes)
	x.Counter("taskdrop_journal_fsyncs_total", "Completed journal fdatasyncs.").Int(fsyncs)
	x.Counter("taskdrop_journal_snapshots_total", "Journal checkpoints written.").Int(snaps)
	x.Gauge("taskdrop_journal_lag_records", "Appended records not yet covered by an fsync.").Int(lag)
	x.Gauge("taskdrop_journal_disk_bytes", "Journal segment and snapshot bytes on disk across shards.").Int(disk)
	x.Histogram("taskdrop_journal_fsync_latency_seconds", "Journal fdatasync latency.").Observed(c.fsyncLatency)
}

// initJournal brings the controller's journal up before any shard serves:
// validate (or create) the manifest, recover every shard from its
// log — restore the newest checkpoint but one, then walk the tail as
// hcreplay -verify would (shard.replayLog) — and only then open the writers,
// which turns emit from the walk's matching queue into the log. Returns an error
// rather than serving over a log it cannot continue safely.
func (c *Controller) initJournal() error {
	root := c.cfg.JournalDir
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	want := manifestFor(c.cfg)
	switch have, err := LoadManifest(root); {
	case err == nil:
		if have != want {
			return fmt.Errorf("service: journal %s was written under a different configuration (%+v); refusing to continue it with %+v", root, have, want)
		}
	case os.IsNotExist(err):
		blob, merr := json.MarshalIndent(want, "", "  ")
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(filepath.Join(root, manifestName), append(blob, '\n'), 0o644); werr != nil {
			return werr
		}
	default:
		return err
	}

	policy, err := journal.ParseSyncPolicy(c.cfg.Fsync)
	if err != nil {
		return err
	}
	c.fsyncLatency = telemetry.NewHistogram(journalFsyncBuckets)

	maxSeq := int64(-1)
	for _, sh := range c.shards {
		start := time.Now()
		sh.replay = true // until the writer opens, below
		st, err := sh.recover()
		if err != nil {
			c.log.Error("journal recovery failed", "shard", sh.id, "dir", ShardJournalDir(root, sh.id), "err", err)
			return fmt.Errorf("service: shard %d recovery: %w", sh.id, err)
		}
		c.log.Info("shard recovered from journal",
			"shard", sh.id,
			"seq_watermark", sh.watermark,
			"clock", int64(sh.eng.Now()),
			"records", st.Records, "derived", st.Derived, "checkpoints", st.Checkpoints,
			"elapsed", time.Since(start))
		if sh.watermark > maxSeq {
			maxSeq = sh.watermark
		}
	}
	c.seq.Store(maxSeq + 1)

	// Re-seed the dedup window from the recovered batches: a request that
	// committed before the crash answers its retry with its original
	// decisions. A commit the crash tore is not on the log, so its retry
	// executes afresh. Seeding covers the batches of the recovered tail,
	// which journal.Recover makes at least one whole segment (SnapshotEvery
	// records) long however close to a checkpoint the crash fell — unless
	// only the newest checkpoint reads; a retry of something older than the
	// tail is executed again.
	c.seedDedup()

	// Writers open after recovery: OpenWriter truncates any torn tail, so
	// it must not run until the replay has consumed the valid prefix.
	for _, sh := range c.shards {
		w, err := journal.OpenWriter(ShardJournalDir(root, sh.id), journal.WriterOptions{
			Policy:   policy,
			Interval: c.cfg.FsyncInterval,
			OnFsync:  c.fsyncLatency.Observe,
		})
		if err != nil {
			return err
		}
		sh.jw, sh.replay = w, false
	}
	return nil
}

// seedDedup merges the shards' recovered batches per decision ID and
// installs each ID's original response in the dedup window. A multi-shard
// request journaled one sub-batch per shard under the same ID; its
// decisions merge back into request order by sequence number (Decide
// assigns them contiguously in request order). Runs before any shard
// serves.
func (c *Controller) seedDedup() {
	type mergedBatch struct {
		decisions []Decision
		now       pmf.Tick
	}
	byID := make(map[string]*mergedBatch)
	var order []string
	for _, sh := range c.shards {
		for i := range sh.recovered {
			rb := &sh.recovered[i]
			m := byID[rb.id]
			if m == nil {
				m = &mergedBatch{}
				byID[rb.id] = m
				order = append(order, rb.id)
			}
			m.decisions = append(m.decisions, rb.decisions...)
			if rb.now > m.now {
				m.now = rb.now
			}
		}
		sh.recovered = nil
	}
	for _, id := range order {
		m := byID[id]
		sort.Slice(m.decisions, func(i, j int) bool { return m.decisions[i].Seq < m.decisions[j].Seq })
		// The answer the live ack path (DecideHandler) kept, so a replayed
		// duplicate renders byte-identical.
		c.dedup.Commit(id, appendAnswer(nil, &DecideResponse{Now: m.now, Decisions: m.decisions}), len(m.decisions))
	}
	if len(order) > 0 {
		c.log.Info("dedup window re-seeded from journal", "seeded", len(order))
	}
}

// recoveredBatch is one journaled decide sub-batch carrying a decision ID,
// re-derived during recovery: the decisions the shard acknowledged under
// the ID. initJournal merges the per-shard parts of each ID and re-seeds
// the dedup window, so a client retrying across the crash still gets its
// original decisions back.
type recoveredBatch struct {
	id        string
	decisions []Decision
	now       pmf.Tick
}

// recover rebuilds one shard's state from its log: replayLog from the
// checkpoint journal.Recover picks, on the served shard itself (which
// initJournal holds in replay mode meanwhile), so the tail is applied by
// the statements that wrote it and every decision and event it holds is
// checked against what they derive — a tail that does not re-derive
// refuses the start, naming the record, instead of serving on state the log
// contradicts. The walk's visitor lands each ID-carrying sub-batch of the
// tail in sh.recovered; every one is whole, because a commit reaches the
// log whole or not at all. Runs before the shard serves; no synchronization
// needed.
func (sh *shard) recover() (*VerifyStats, error) {
	open := false // the sub-batch being replayed carries an ID, in the newest entry
	st, err := sh.replayLog(sh.c.cfg.JournalDir, true, func(r *journal.Record, d Decision) {
		switch {
		case r.Kind == journal.KindBatch:
			if open = r.ID != ""; open {
				sh.recovered = append(sh.recovered, recoveredBatch{id: r.ID})
			}
		case r.Kind == journal.KindArrive && open:
			// d is the wire decision the live server acknowledged, re-derived.
			rb := &sh.recovered[len(sh.recovered)-1]
			rb.decisions = append(rb.decisions, d)
			rb.now = sh.eng.Now()
		}
	})
	// Republish after the tail: membership may have changed mid-log, and a
	// fully-removed shard is down from the first post-recovery request.
	sh.publishMembership()
	return st, err
}

// arriveRecord is the journal form of one admitted arrival: the input
// record the live shard logs before feeding the task (its sequence number
// is the task's ID; id is the client's label).
func arriveRecord(t *workload.Task, id string) journal.Record {
	return journal.Record{
		Kind:     journal.KindArrive,
		Seq:      int64(t.ID),
		Type:     int32(t.Type),
		Tick:     t.Arrival,
		Deadline: t.Deadline,
		Exec:     t.ExecByType,
		ID:       id,
	}
}

// arriveTask reconstructs the engine task of one arrive record — the
// inverse of arriveRecord, for shard.apply (the recorded Exec already
// carries the resolved execution times, so no PET fallback is needed). The
// task borrows rec.Exec, which the journal's scan reuses for the next
// record; the engine copies what it keeps.
func arriveTask(rec *journal.Record) workload.Task {
	return workload.Task{
		ID:         int(rec.Seq),
		Type:       pet.TaskType(rec.Type),
		Arrival:    rec.Tick,
		Deadline:   rec.Deadline,
		ExecByType: rec.Exec,
	}
}

// decisionRecord is the journal form of one admission outcome at shard
// clock now (machine index shard-local).
func decisionRecord(seq int64, a Action, localMachine int, now pmf.Tick) journal.Record {
	act := journal.ActDrop
	switch a {
	case ActionMap:
		act = journal.ActMap
	case ActionDefer:
		act = journal.ActDefer
	}
	return journal.Record{
		Kind:    journal.KindDecision,
		Seq:     seq,
		Action:  act,
		Machine: int32(localMachine),
		Tick:    now,
	}
}

// journalTrace logs one completed stage trace. It runs after the
// sub-batch's commit (the trace's journal span must include the fsync),
// so the record rides the next commit — or the writer's closing flush —
// one batch later. Traces are observational; losing a tail of them in a
// crash loses nothing recovery or verification needs.
func (sh *shard) journalTrace(tr *telemetry.Trace) {
	rec := journal.Record{
		Kind:  journal.KindTrace,
		Seq:   tr.Seq,
		Spans: make([]journal.SpanRec, len(tr.Spans)),
	}
	for i, sp := range tr.Spans {
		rec.Spans[i] = journal.SpanRec{Stage: uint8(sp.Stage), StartNS: uint64(sp.StartNS), EndNS: uint64(sp.EndNS)}
	}
	sh.emit(&rec)
}

// commitJournal makes the sub-batch durable per the fsync policy and
// checkpoints when the segment has grown past the snapshot cadence. Called
// under the shard's turn before the sub-batch (or membership operation) is
// acknowledged — the shard's one commit point, so a failure here fails the
// request with ErrJournalFailed and latches the shard out of service.
func (sh *shard) commitJournal() error {
	err := sh.jw.Commit()
	if every := sh.c.cfg.SnapshotEvery; err == nil && every > 0 && sh.jw.RecordsInSegment() >= every {
		err = sh.checkpoint()
	}
	if err != nil {
		sh.journalFailed.Store(true)
		return fmt.Errorf("%w: %v", ErrJournalFailed, err)
	}
	return nil
}

// checkpointState captures the shard's state as a checkpoint. Runs under the
// shard's turn, or on a shard in replay mode.
func (sh *shard) checkpointState() *ShardCheckpoint {
	cp := &ShardCheckpoint{
		Shard:        sh.id,
		SeqWatermark: sh.watermark,
		Requests:     sh.metrics.requests.Load(),
		Mapped:       sh.metrics.mapped.Load(),
		Deferred:     sh.metrics.deferred.Load(),
		Dropped:      sh.metrics.dropped.Load(),
		Robustness:   make([]float64, sh.c.matrix.NumTaskTypes()),
		Engine:       sh.eng.Snapshot(),
	}
	for class := range cp.Robustness {
		cp.Robustness[class] = sh.view.ClassRobustness(class)
	}
	return cp
}

// checkpoint writes the shard's full state as a journal snapshot and
// rotates the segment, encoding into the shard's checkpoint buffer (the
// writer keeps nothing of the payload). Runs under the shard's turn.
func (sh *shard) checkpoint() error {
	sh.cpBuf = appendCheckpoint(sh.cpBuf[:0], sh.checkpointState())
	return sh.jw.Checkpoint(sh.cpBuf)
}

// restore is checkpoint's inverse: it loads one snapshot payload into a
// freshly built shard.
func (sh *shard) restore(payload []byte) error {
	cp, err := decodeCheckpoint(payload)
	if err != nil {
		return err
	}
	if err := sh.eng.RestoreSnapshot(cp.Engine); err != nil {
		return err
	}
	sh.watermark = cp.SeqWatermark
	m := sh.metrics
	m.requests.Add(cp.Requests)
	m.mapped.Add(cp.Mapped)
	m.deferred.Add(cp.Deferred)
	m.dropped.Add(cp.Dropped)
	for class, p := range cp.Robustness {
		sh.view.SetClassRobustness(class, p)
	}
	return nil
}
