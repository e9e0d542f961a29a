package journal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy decides when appended records are fdatasynced to stable
// storage. See ParseSyncPolicy for the spec strings.
type SyncPolicy uint8

// The three durability policies.
const (
	// SyncAlways fsyncs inside every Commit, before the decision is
	// acknowledged: a power loss can never cost an acked decision.
	SyncAlways SyncPolicy = iota
	// SyncInterval flushes on every Commit and fsyncs on a background
	// interval: a power loss costs at most the last interval's decisions;
	// an OS crash-free process kill costs nothing (the flush reached the
	// page cache).
	SyncInterval
	// SyncNever flushes on every Commit and never fsyncs; the OS page
	// cache writes back on its own schedule.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy resolves a policy spec: "always", "interval" or
// "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// WriterOptions tunes a Writer.
type WriterOptions struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval
	// (default 100ms).
	Interval time.Duration
	// OnFsync, when set, observes the duration of every fdatasync — the
	// service feeds its fsync-latency histogram through it. Called from
	// the committing goroutine (SyncAlways) or the background syncer
	// (SyncInterval); implementations must be concurrency-safe.
	OnFsync func(time.Duration)
}

// Writer appends framed records to a shard's segmented WAL. It is owned
// by one goroutine (the shard's decision loop): Append, Commit,
// Checkpoint and Close must not race each other. The background interval
// syncer is the only concurrent toucher and is synchronized internally.
type Writer struct {
	dir  string
	opts WriterOptions

	// fmu guards f against the interval syncer: rotation and close swap
	// or nil the file while the syncer may be fsyncing it.
	fmu sync.Mutex
	f   *os.File

	bw  *bufio.Writer
	seg int
	// recsInSeg counts records appended to the current segment — the
	// snapshot cadence is measured in records, not bytes, because replay
	// cost scales with records.
	recsInSeg int
	buf       []byte

	appended atomic.Int64 // records appended (flushed or not)
	durable  atomic.Int64 // records covered by the last completed fsync
	fsyncs   atomic.Int64
	bytes    atomic.Int64
	snaps    atomic.Int64
	// diskBase is the directory's segment and snapshot bytes at the last
	// open or trim, less bytes at that moment: DiskBytes adds bytes back.
	diskBase atomic.Int64
	closed   chan struct{}
	syncDone chan struct{}

	// err latches the first append/flush/sync failure: a WAL with a lost
	// write must not silently keep acknowledging decisions.
	err error
}

// OpenWriter opens (or creates) a shard log directory for appending. An
// existing log is continued: the writer scans the last segment, truncates
// any torn tail left by a crash, and appends after the last valid record.
// Call Recover first to rebuild state from the log — opening the writer
// does not replay anything.
func OpenWriter(dir string, opts WriterOptions) (*Writer, error) {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash between a snapshot's temp write and its rename leaves a temp
	// file that nothing else reads or deletes.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if tmp, _ := filepath.Match(snapTemp, e.Name()); tmp {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	snaps, err := Snapshots(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts, closed: make(chan struct{}), syncDone: make(chan struct{})}

	// The appending segment is the last one on disk; a snapshot written
	// without its successor segment (crash between snapshot and rotation)
	// starts the successor now.
	w.seg = 0
	if n := len(segs); n > 0 {
		w.seg = segs[n-1]
	}
	if n := len(snaps); n > 0 && snaps[n-1] >= w.seg {
		w.seg = snaps[n-1] + 1
	}

	path := SegmentPath(dir, w.seg)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Truncate a torn tail so appends continue at a record boundary.
	valid, nrec, err := scanFrames(path, f, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.recsInSeg = nrec
	w.diskBase.Store(diskBytes(dir))
	syncDir(dir)

	if opts.Policy == SyncInterval {
		go w.syncLoop()
	} else {
		close(w.syncDone)
	}
	return w, nil
}

// RecordsInSegment returns the number of records in the current segment —
// the tail a crash right now would replay.
func (w *Writer) RecordsInSegment() int { return w.recsInSeg }

// Appended returns the total records appended through this writer.
func (w *Writer) Appended() int64 { return w.appended.Load() }

// Lag returns the number of appended records not yet covered by a
// completed fsync — the journal's durability lag. Zero under SyncAlways
// (between commits); grows with the interval under SyncInterval; counts
// everything appended under SyncNever.
func (w *Writer) Lag() int64 { return w.appended.Load() - w.durable.Load() }

// Fsyncs returns the number of completed fdatasyncs.
func (w *Writer) Fsyncs() int64 { return w.fsyncs.Load() }

// Bytes returns the total bytes appended.
func (w *Writer) Bytes() int64 { return w.bytes.Load() }

// Checkpoints returns the number of snapshots written.
func (w *Writer) Checkpoints() int64 { return w.snaps.Load() }

// DiskBytes returns the segment and snapshot bytes in the log directory:
// its size at the last open or trim plus what has been appended since.
func (w *Writer) DiskBytes() int64 { return w.diskBase.Load() + w.bytes.Load() }

// Append buffers one record. Records become readable by a concurrent
// scan only after Commit and durable per the sync policy.
func (w *Writer) Append(r *Record) error {
	if w.err != nil {
		return w.err
	}
	w.buf = AppendRecord(w.buf[:0], r)
	n, err := w.bw.Write(w.buf)
	w.bytes.Add(int64(n))
	if err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	w.recsInSeg++
	w.appended.Add(1)
	return nil
}

// Commit makes everything appended so far crash-safe per the sync
// policy: flush to the OS always, plus an inline fdatasync under
// SyncAlways. The admission loop calls Commit after journaling a decide
// sub-batch and before acknowledging it.
func (w *Writer) Commit() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("journal: flush: %w", err)
		return w.err
	}
	if w.opts.Policy == SyncAlways {
		if err := w.fsync(); err != nil {
			w.err = err
			return w.err
		}
	}
	return nil
}

// fsync pins the current file's written data and accounts it.
func (w *Writer) fsync() error {
	mark := w.appended.Load()
	w.fmu.Lock()
	f := w.f
	var err error
	start := time.Now()
	if f != nil {
		err = f.Sync()
	}
	d := time.Since(start)
	w.fmu.Unlock()
	if err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	w.fsyncs.Add(1)
	if mark > w.durable.Load() {
		w.durable.Store(mark)
	}
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(d)
	}
	return nil
}

// syncLoop is the SyncInterval background syncer. It only ever syncs
// data the loop already flushed; records still in the bufio buffer wait
// for the next Commit.
func (w *Writer) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.closed:
			return
		case <-t.C:
			if w.durable.Load() < w.appended.Load() {
				_ = w.fsync() // the next Commit surfaces persistent failures
			}
		}
	}
}

// Checkpoint writes the caller's snapshot payload as snapshot K (K = the
// current segment), rotates to segment K+1 and trims the history behind
// the checkpoint before K. The sequence is crash-ordered: the old segment
// is flushed and fsynced before the snapshot, the snapshot is written to a
// temp file, fsynced and renamed, only then does the new segment open, and
// only then does anything go — so at every instant the directory holds
// Recover's (base, newest, tail).
func (w *Writer) Checkpoint(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("journal: flush: %w", err)
		return w.err
	}
	if err := w.fsync(); err != nil {
		w.err = err
		return w.err
	}

	if err := writeSnapshotFile(w.dir, w.seg, payload); err != nil {
		w.err = err
		return w.err
	}
	w.snaps.Add(1)

	// Rotate.
	next, err := os.OpenFile(SegmentPath(w.dir, w.seg+1), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		w.err = fmt.Errorf("journal: rotate: %w", err)
		return w.err
	}
	w.fmu.Lock()
	old := w.f
	w.f = next
	w.fmu.Unlock()
	_ = old.Close()
	w.bw.Reset(next)
	w.seg++
	w.recsInSeg = 0
	w.trim()
	return nil
}

// trim deletes what recovery no longer reads: with keep the base Recover
// plans now — the newest readable checkpoint before the one just written,
// on a healthy log P — every segment <= keep, then every snapshot < keep
// (nothing while recovery starts from genesis or cannot plan). Retention is
// Recover's plan by construction, and the history behind a base that has
// become unreadable stays until a newer base covers it. Segments go oldest
// first and before any snapshot, so a crash mid-trim leaves a log that
// still starts on a checkpoint (Oldest) and that the next checkpoint
// finishes trimming; a segment that will not go stops the trim there,
// keeping the snapshot before it. A file left behind is retried at the next
// checkpoint and stays in DiskBytes meanwhile.
func (w *Writer) trim() {
	keep := -1
	if p, err := Recover(w.dir); err == nil {
		keep = p.SnapshotSeg
	}
	segs, _ := Segments(w.dir)
	snaps, _ := Snapshots(w.dir)
	for _, s := range segs {
		if s > keep {
			break
		}
		if err := os.Remove(SegmentPath(w.dir, s)); err != nil && !os.IsNotExist(err) {
			keep = s - 1
			break
		}
	}
	for _, s := range snaps {
		if s >= keep {
			break
		}
		_ = os.Remove(SnapshotPath(w.dir, s))
	}
	syncDir(w.dir)
	w.diskBase.Store(diskBytes(w.dir) - w.bytes.Load())
}

// writeSnapshotFile frames payload as one WAL-style frame (sealFrame) into
// snap-<seg> via a fsynced temp-and-rename.
func writeSnapshotFile(dir string, seg int, payload []byte) error {
	if len(payload) > maxSnapshotPayload {
		return fmt.Errorf("journal: snapshot payload %d bytes exceeds %d", len(payload), maxSnapshotPayload)
	}
	tmp, err := os.CreateTemp(dir, snapTemp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	frame := append(make([]byte, frameHeader, frameHeader+len(payload)), payload...)
	sealFrame(frame)
	if _, err = tmp.Write(frame); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: snapshot write: %w", err)
	}
	if err := os.Rename(tmp.Name(), SnapshotPath(dir, seg)); err != nil {
		return fmt.Errorf("journal: snapshot rename: %w", err)
	}
	syncDir(dir)
	return nil
}

// Close flushes, fsyncs (under any policy — closing is the final commit)
// and stops the background syncer.
func (w *Writer) Close() error {
	select {
	case <-w.closed:
		return w.err
	default:
	}
	close(w.closed)
	<-w.syncDone
	ferr := w.bw.Flush()
	serr := w.fsync()
	w.fmu.Lock()
	cerr := w.f.Close()
	w.f = nil
	w.fmu.Unlock()
	for _, err := range []error{ferr, serr, cerr} {
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}
