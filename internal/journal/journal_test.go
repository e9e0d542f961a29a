package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// sampleRecords builds a deterministic mixed-kind record sequence.
func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		switch rng.Intn(7) {
		case 0:
			out[i] = Record{Kind: KindBatch, NTasks: int32(1 + rng.Intn(32))}
		case 1:
			exec := make([]pmf.Tick, 1+rng.Intn(4))
			for j := range exec {
				exec[j] = pmf.Tick(1 + rng.Intn(1000))
			}
			out[i] = Record{
				Kind: KindArrive, Seq: int64(i), Type: int32(rng.Intn(30)),
				Tick: pmf.Tick(rng.Intn(100000)), Deadline: pmf.Tick(rng.Intn(200000)),
				Exec: exec, ID: "t-abc",
			}
		case 2:
			out[i] = Record{Kind: KindDecision, Seq: int64(i), Action: uint8(rng.Intn(3)),
				Machine: int32(rng.Intn(8) - 1), Tick: pmf.Tick(rng.Intn(100000))}
		case 3:
			out[i] = Record{Kind: KindEvent, Seq: int64(i), Action: uint8(3 + rng.Intn(5)),
				Tick: pmf.Tick(rng.Intn(100000))}
		case 4:
			spans := make([]SpanRec, 1+rng.Intn(6))
			off := uint64(0)
			for j := range spans {
				start := off + uint64(rng.Intn(1000))
				end := start + uint64(rng.Intn(100000))
				spans[j] = SpanRec{Stage: uint8(j), StartNS: start, EndNS: end}
				off = start
			}
			out[i] = Record{Kind: KindTrace, Seq: int64(i), Spans: spans}
		case 5:
			out[i] = Record{Kind: KindMembership, Action: uint8(rng.Intn(3)),
				Machine: int32(rng.Intn(16)), Type: int32(rng.Intn(8)),
				NTasks: int32(rng.Intn(2)), Tick: pmf.Tick(rng.Intn(100000))}
		default:
			out[i] = Record{Kind: KindDrain, Tick: pmf.Tick(rng.Intn(100000))}
		}
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords(200, 1) {
		buf := AppendRecord(nil, &r)
		got, err := DecodeRecord(buf[frameHeader:])
		if err != nil {
			t.Fatalf("decode %v: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("round trip mismatch:\n in %+v\nout %+v", r, got)
		}
	}
}

// TestBatchDecisionIDRoundTrip pins the trailing optional decision-ID
// field of batch records: an ID survives the round trip, an ID-less batch
// encodes exactly as the pre-ID format did (so old logs stay readable and
// new ID-less logs stay readable by old builds), and both render in
// String for hcreplay audits.
func TestBatchDecisionIDRoundTrip(t *testing.T) {
	with := Record{Kind: KindBatch, NTasks: 16, ID: "replay-0-000042"}
	buf := AppendRecord(nil, &with)
	got, err := DecodeRecord(buf[frameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(with, got) {
		t.Fatalf("batch ID round trip mismatch:\n in %+v\nout %+v", with, got)
	}
	if s := got.String(); !bytes.Contains([]byte(s), []byte("replay-0-000042")) {
		t.Fatalf("String() omits the decision ID: %q", s)
	}

	without := Record{Kind: KindBatch, NTasks: 16}
	plain := AppendRecord(nil, &without)
	if len(plain) >= len(buf) {
		t.Fatalf("ID-less batch (%d bytes) not shorter than ID-carrying batch (%d bytes): the ID is not a trailing optional field", len(plain), len(buf))
	}
	back, err := DecodeRecord(plain[frameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(without, back) {
		t.Fatalf("ID-less batch round trip mismatch:\n in %+v\nout %+v", without, back)
	}
}

// TestMembershipRecordRoundTrip pins the dynamic-membership record kind:
// every op survives the round trip, an out-of-range op byte is rejected,
// and String renders the op code (its names are sim.MemberKind's) and the
// machine.
func TestMembershipRecordRoundTrip(t *testing.T) {
	for _, r := range []Record{
		{Kind: KindMembership, Action: MemberAdd, Machine: 4, Type: 2, Tick: 512},
		{Kind: KindMembership, Action: MemberRemove, Machine: 3, NTasks: 1, Tick: 99},
		{Kind: KindMembership, Action: MemberRemove, Machine: 0, NTasks: 0, Tick: 0},
		{Kind: KindMembership, Action: MemberRevive, Machine: 3, Tick: 100000},
	} {
		buf := AppendRecord(nil, &r)
		got, err := DecodeRecord(buf[frameHeader:])
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("membership round trip mismatch:\n in %+v\nout %+v", r, got)
		}
	}
	rm := Record{Kind: KindMembership, Action: MemberRemove, Machine: 7, NTasks: 1, Tick: 42}
	if s := rm.String(); !bytes.Contains([]byte(s), []byte("op=1")) || !bytes.Contains([]byte(s), []byte("machine=7")) {
		t.Fatalf("String() = %q, want the op and machine", s)
	}
	forged := AppendRecord(nil, &rm)[frameHeader:]
	forged = append([]byte(nil), forged...)
	forged[2] = MemberRevive + 1 // version u8 + kind u8, then the op byte
	if _, err := DecodeRecord(forged); err == nil {
		t.Fatal("out-of-range membership op decoded")
	}
}

// TestTraceRecordBounds pins the span-count cap: the encoder accepts
// exactly maxSpans, panics past it, and the decoder rejects both an
// oversized count byte and a payload truncated mid-span.
func TestTraceRecordBounds(t *testing.T) {
	spans := make([]SpanRec, maxSpans)
	for i := range spans {
		spans[i] = SpanRec{Stage: uint8(i), StartNS: uint64(i * 10), EndNS: uint64(i*10 + 5)}
	}
	r := Record{Kind: KindTrace, Seq: 9, Spans: spans}
	buf := AppendRecord(nil, &r)
	got, err := DecodeRecord(buf[frameHeader:])
	if err != nil {
		t.Fatalf("decode at cap: %v", err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatal("round trip at cap mismatched")
	}

	over := Record{Kind: KindTrace, Seq: 1, Spans: make([]SpanRec, maxSpans+1)}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AppendRecord accepted a trace past the span cap")
			}
		}()
		AppendRecord(nil, &over)
	}()

	small := Record{Kind: KindTrace, Seq: 2, Spans: []SpanRec{{Stage: 1, StartNS: 10, EndNS: 20}}}
	payload := AppendRecord(nil, &small)[frameHeader:]
	if _, err := DecodeRecord(payload[:len(payload)-5]); err == nil {
		t.Fatal("truncated trace payload decoded")
	}
	// Patch the count byte (version u8 + kind u8 + seq u64 = offset 10)
	// past the cap.
	forged := append([]byte(nil), payload...)
	forged[10] = maxSpans + 1
	if _, err := DecodeRecord(forged); err == nil {
		t.Fatal("forged span count decoded")
	}
}

// replayed plans a walk over dir and returns the records its tail holds.
func replayed(t *testing.T, dir string, planner func(string) (*Recovery, error)) []Record {
	t.Helper()
	rec, err := planner(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := []Record{} // an empty tail DeepEquals an empty recs[i:i]
	if err := rec.Replay(dir, func(r *Record) error { got = append(got, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestWriterAppendScan(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(100, 2)
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayed(t, dir, Recover)
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("scan mismatch: %d in, %d out", len(recs), len(got))
	}
	if w.Lag() != 0 {
		t.Fatalf("lag %d after Close, want 0", w.Lag())
	}
}

// TestTornTailRecovery cuts a segment at every possible byte length and
// checks that (a) the scan recovers exactly the records whose frames
// survived intact and (b) a writer reopening the cut log truncates the
// tail and appends cleanly after it.
func TestTornTailRecovery(t *testing.T) {
	recs := sampleRecords(12, 3)
	var full []byte
	var bounds []int // byte offset after each record
	for i := range recs {
		full = AppendRecord(full, &recs[i])
		bounds = append(bounds, len(full))
	}
	wholeAt := func(cut int) int {
		n := 0
		for _, b := range bounds {
			if b <= cut {
				n++
			}
		}
		return n
	}
	for cut := 0; cut <= len(full); cut += 7 {
		dir := t.TempDir()
		path := SegmentPath(dir, 0)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := ScanSegment(path, func(r *Record) error { got = append(got, *r); return nil }); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := wholeAt(cut)
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		if !reflect.DeepEqual(got, recs[:want]) && want > 0 {
			t.Fatalf("cut %d: recovered wrong prefix", cut)
		}

		// Reopen for append: the torn bytes must be truncated, and a fresh
		// record must land right after the valid prefix.
		w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		extra := Record{Kind: KindDrain, Tick: 42}
		if err := w.Append(&extra); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		if err := ScanSegment(path, func(r *Record) error { got = append(got, *r); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != want+1 || !reflect.DeepEqual(got[want], extra) {
			t.Fatalf("cut %d: after reopen got %d records, want %d + drain", cut, len(got), want+1)
		}
	}
}

// TestCorruptedMiddleStopsScan flips a byte inside an early record: the
// scan must stop at the corruption and surface only the prefix.
func TestCorruptedMiddleStopsScan(t *testing.T) {
	recs := sampleRecords(10, 4)
	var full []byte
	firstLen := 0
	for i := range recs {
		full = AppendRecord(full, &recs[i])
		if i == 0 {
			firstLen = len(full)
		}
	}
	full[firstLen+frameHeader+1] ^= 0xFF // corrupt record 1's payload
	dir := t.TempDir()
	path := SegmentPath(dir, 0)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := ScanSegment(path, func(r *Record) error { got = append(got, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("scan past corruption: got %d records, want 1", len(got))
	}
}

func TestCheckpointRotationAndRecover(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(30, 5)
	for i := 0; i < 10; i++ {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint([]byte("state-after-10")); err != nil {
		t.Fatal(err)
	}
	if w.seg != 1 || w.RecordsInSegment() != 0 {
		t.Fatalf("after checkpoint: seg %d recs %d, want 1/0", w.seg, w.RecordsInSegment())
	}
	for i := 10; i < 20; i++ {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint([]byte("state-after-20")); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The walk starts at the newest snapshot but one: the tail holds a
	// whole segment, and reaches the newest snapshot by replay.
	if string(rec.Snapshot) != "state-after-10" || rec.SnapshotSeg != 0 {
		t.Fatalf("recover picked snapshot %d %q", rec.SnapshotSeg, rec.Snapshot)
	}
	if tail := replayed(t, dir, Recover); !reflect.DeepEqual(tail, recs[10:30]) {
		t.Fatalf("tail replay got %d records, want 20", len(tail))
	}
	// The second checkpoint trimmed segment 0, which no recovery reads: the
	// oldest walk the log supports is the same one.
	if segs, _ := Segments(dir); !reflect.DeepEqual(segs, []int{1, 2}) {
		t.Fatalf("segments on disk %v, want [1 2]", segs)
	}
	if tail := replayed(t, dir, Oldest); !reflect.DeepEqual(tail, recs[10:30]) {
		t.Fatalf("oldest walk got %d records, want 20", len(tail))
	}

	// Corrupt the newest snapshot: recovery still bases on the older
	// retained one, and its tail still holds a whole segment.
	if err := os.WriteFile(SnapshotPath(dir, 1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "state-after-10" || rec.SnapshotSeg != 0 {
		t.Fatalf("fallback picked snapshot %d %q, want 0", rec.SnapshotSeg, rec.Snapshot)
	}
	// With both corrupt nothing stands for the trimmed segment 0: refused,
	// not replayed onto an empty state.
	if err := os.WriteFile(SnapshotPath(dir, 0), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "segment 0 is missing") {
		t.Fatalf("recover over a trimmed log without a readable checkpoint: %v", err)
	}
}

// TestTrimCrashPoints builds a log to just before its fourth checkpoint
// (snapshots 1 and 2, segments 2 and 3, ten records a segment) and stops
// that checkpoint at each step — snapshot renamed, segment rotated, trim
// half done, trim done — and corrupts what it kept. Every crash point plans
// the uninterrupted recovery (base snapshot 2, segment 3's records), the
// oldest walk starts on a checkpoint, and the next checkpoint leaves
// exactly two snapshots and two segments. A corrupt newest snapshot still
// recovers from the older one, a corrupt older one from the newest; with
// both corrupt the plan is refused.
func TestTrimCrashPoints(t *testing.T) {
	recs := sampleRecords(50, 6)
	state := func(n int) []byte { return fmt.Appendf(nil, "state-after-%d", n) }
	garbage := func(t *testing.T, dir string, seg int) {
		if err := os.WriteFile(SnapshotPath(dir, seg), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func(t *testing.T, dir string, from, to int) *Writer {
		w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < to; i++ {
			if err := w.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 && i+1 < to {
				if err := w.Checkpoint(state(i + 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Checkpoint(state(to)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// The steps of checkpoint 3, cumulatively.
	renamed := func(t *testing.T, dir string) {
		if err := writeSnapshotFile(dir, 3, state(40)); err != nil {
			t.Fatal(err)
		}
	}
	rotated := func(t *testing.T, dir string) {
		renamed(t, dir)
		if err := os.WriteFile(SegmentPath(dir, 4), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	trimmed := func(t *testing.T, dir string) { checkpoint(t, dir, 40, 40).Close() }
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir string)
		// base is the snapshot recovery plans from, and next the one it
		// plans from after the next checkpoint — where that checkpoint trims.
		base, next int
		want       string // a refusal: neither planner finds a start
	}{
		{"after snapshot rename", renamed, 2, 3, ""},
		{"after rotation", rotated, 2, 3, ""},
		{"mid-trim", func(t *testing.T, dir string) {
			rotated(t, dir)
			if err := os.Remove(SegmentPath(dir, 2)); err != nil { // snapshot 1 not yet
				t.Fatal(err)
			}
		}, 2, 3, ""},
		{"trimmed", trimmed, 2, 3, ""},
		// The unreadable newest is kept until a newer base covers it.
		{"newest snapshot corrupt", func(t *testing.T, dir string) {
			trimmed(t, dir)
			garbage(t, dir, 3)
		}, 2, 2, ""},
		// Nothing older reads: the walks start on the newest, an empty tail.
		{"older retained snapshot corrupt", func(t *testing.T, dir string) {
			trimmed(t, dir)
			garbage(t, dir, 2)
		}, 3, 3, ""},
		{"both retained snapshots corrupt", func(t *testing.T, dir string) {
			trimmed(t, dir)
			garbage(t, dir, 2)
			garbage(t, dir, 3)
		}, 0, 0, "segment 0 is missing: the log resumes at segment 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := checkpoint(t, dir, 0, 30)
			for i := 30; i < 40; i++ {
				if err := w.Append(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			tc.crash(t, dir)

			rec, err := Recover(dir)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("recover: %v, want an error containing %q", err, tc.want)
				}
				if _, err := Oldest(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("oldest: %v, want an error containing %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			from := 10 * (tc.base + 1)
			if rec.SnapshotSeg != tc.base || !bytes.Equal(rec.Snapshot, state(from)) {
				t.Fatalf("recover based on snapshot %d %q, want %d", rec.SnapshotSeg, rec.Snapshot, tc.base)
			}
			if tail := replayed(t, dir, Recover); !reflect.DeepEqual(tail, recs[from:40]) {
				t.Fatalf("recovery tail holds %d records, want %d", len(tail), 40-from)
			}
			old, err := Oldest(dir)
			if err != nil {
				t.Fatal(err)
			}
			from = 10 * (old.SnapshotSeg + 1)
			if !bytes.Equal(old.Snapshot, state(from)) {
				t.Fatalf("oldest walk based on snapshot %d %q", old.SnapshotSeg, old.Snapshot)
			}
			if tail := replayed(t, dir, Oldest); !reflect.DeepEqual(tail, recs[from:40]) {
				t.Fatalf("oldest walk holds %d records, want %d", len(tail), 40-from)
			}

			// The next checkpoint finishes whatever trim the crash cut short,
			// keeping recovery's plan: snapshots next..4, segments after next.
			w = checkpoint(t, dir, 40, 50)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			var wantSegs, wantSnaps []int
			for s := tc.next; s <= 4; s++ {
				wantSnaps, wantSegs = append(wantSnaps, s), append(wantSegs, s+1)
			}
			segs, _ := Segments(dir)
			snaps, _ := Snapshots(dir)
			if !reflect.DeepEqual(segs, wantSegs) || !reflect.DeepEqual(snaps, wantSnaps) {
				t.Fatalf("after the next checkpoint: segments %v, snapshots %v; want %v, %v", segs, snaps, wantSegs, wantSnaps)
			}
			if got, want := w.DiskBytes(), diskBytes(dir); got != want {
				t.Fatalf("DiskBytes() = %d, directory holds %d", got, want)
			}
		})
	}
}

// TestReopenAfterSnapshotWithoutSuccessor models a crash between writing
// snapshot K and opening segment K+1: the writer must start K+1 itself.
func TestReopenAfterSnapshotWithoutSuccessor(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Kind: KindDrain, Tick: 1}
	if err := w.Append(&r); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint([]byte("s0")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: remove the successor segment the rotation made.
	if err := os.Remove(SegmentPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if w.seg != 1 {
		t.Fatalf("reopened into segment %d, want 1", w.seg)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenWriterRemovesTempSnapshots models a crash between a snapshot's
// temp write and its rename: reopening the log deletes the orphaned temp
// file, and no other file.
func TestOpenWriterRemovesTempSnapshots(t *testing.T) {
	dir := t.TempDir()
	orphan, other := filepath.Join(dir, "snap-2718281.tmp"), filepath.Join(dir, "notes.tmp")
	for _, p := range []string{orphan, other} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp snapshot survived the reopen (%v)", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("reopen deleted a file that is no temp snapshot: %v", err)
	}
}

func TestSnapshotFileCRC(t *testing.T) {
	dir := t.TempDir()
	if err := writeSnapshotFile(dir, 0, []byte("hello snapshot")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(SnapshotPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello snapshot")) {
		t.Fatalf("snapshot payload %q", got)
	}
	// Flip one payload byte: the CRC must catch it.
	raw, _ := os.ReadFile(SnapshotPath(dir, 0))
	raw[frameHeader] ^= 1
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(bad); err == nil {
		t.Fatal("corrupted snapshot read back without error")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
