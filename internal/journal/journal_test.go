package journal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
	var got []Record
	if err := ReplayAll(dir, func(r *Record) error { got = append(got, *r); return nil }); err != nil {
		t.Fatal(err)
	}
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
	if w.Segment() != 1 || w.RecordsInSegment() != 0 {
		t.Fatalf("after checkpoint: seg %d recs %d, want 1/0", w.Segment(), w.RecordsInSegment())
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
	var tail []Record
	if err := rec.Replay(dir, func(r *Record) error { tail = append(tail, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, recs[10:30]) {
		t.Fatalf("tail replay got %d records, want 20", len(tail))
	}

	// Corrupt the newest snapshot: one readable snapshot is left, so
	// recovery falls back to genesis and replays everything.
	if err := os.WriteFile(SnapshotPath(dir, 1), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || rec.SnapshotSeg != -1 {
		t.Fatalf("fallback picked snapshot %d %q, want genesis", rec.SnapshotSeg, rec.Snapshot)
	}
	tail = tail[:0]
	if err := rec.Replay(dir, func(r *Record) error { tail = append(tail, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, recs) {
		t.Fatalf("fallback tail got %d records, want 30", len(tail))
	}

	// From-scratch replay sees everything.
	var all []Record
	if err := ReplayAll(dir, func(r *Record) error { all = append(all, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, recs) {
		t.Fatalf("ReplayAll got %d records, want %d", len(all), len(recs))
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
	if w.Segment() != 1 {
		t.Fatalf("reopened into segment %d, want 1", w.Segment())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
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
