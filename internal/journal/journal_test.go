package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// sampleRecords builds a deterministic mixed-kind record sequence. Its
// fields reach the edges of the encoding at fixed strides: every 16
// records one sequence number and one tick are the int64 minimum and one
// of each the maximum, and every eighth arrive carries an empty label, the
// one after it a cap-length one. Decision machines include -1.
func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	edge := func(i, at int, v int64) int64 {
		switch i % 16 {
		case at:
			return math.MinInt64
		case at + 8:
			return math.MaxInt64
		}
		return v
	}
	capLabel := strings.Repeat("x", MaxIDLen)
	arrives := 0
	out := make([]Record, n)
	for i := range out {
		seq, tick := edge(i, 3, int64(i)), pmf.Tick(edge(i, 5, int64(rng.Intn(100000))))
		switch rng.Intn(7) {
		case 0:
			out[i] = Record{Kind: KindBatch, NTasks: int32(1 + rng.Intn(32))}
		case 1:
			exec := make([]pmf.Tick, 1+rng.Intn(4))
			for j := range exec {
				exec[j] = pmf.Tick(1 + rng.Intn(1000))
			}
			label := "t-abc"
			switch arrives % 8 {
			case 6:
				label = ""
			case 7:
				label = capLabel
			}
			arrives++
			out[i] = Record{
				Kind: KindArrive, Seq: seq, Type: int32(rng.Intn(30)),
				Tick: tick, Deadline: pmf.Tick(rng.Intn(200000)),
				Exec: exec, ID: label,
			}
		case 2:
			out[i] = Record{Kind: KindDecision, Seq: seq, Action: uint8(rng.Intn(3)),
				Machine: int32(rng.Intn(8) - 1), Tick: tick}
		case 3:
			out[i] = Record{Kind: KindEvent, Seq: seq, Action: uint8(3 + rng.Intn(5)),
				Tick: tick}
		case 4:
			spans := make([]SpanRec, 1+rng.Intn(6))
			off := uint64(0)
			for j := range spans {
				start := off + uint64(rng.Intn(1000))
				end := start + uint64(rng.Intn(100000))
				spans[j] = SpanRec{Stage: uint8(j), StartNS: start, EndNS: end}
				off = start
			}
			out[i] = Record{Kind: KindTrace, Seq: seq, Spans: spans}
		case 5:
			out[i] = Record{Kind: KindMembership, Action: uint8(rng.Intn(3)),
				Machine: int32(rng.Intn(16)), Type: int32(rng.Intn(8)),
				NTasks: int32(rng.Intn(2)), Tick: tick}
		default:
			// Every other one a digest: its value is drawn from no stream, so
			// the records after it are what they were before digests existed.
			out[i] = Record{Kind: KindDrain, Tick: tick}
			if i%2 == 1 {
				out[i] = Record{Kind: KindDigest, Digest: uint64(edge(i, 3, int64(i))) * 0x9e3779b97f4a7c15}
			}
		}
	}
	return out
}

// frame returns the commit frame a writer seals over recs.
func frame(recs ...Record) []byte {
	buf := openFrame(nil)
	for i := range recs {
		buf = AppendRecord(buf, &recs[i])
	}
	sealFrame(buf)
	return buf
}

func TestRecordRoundTrip(t *testing.T) {
	recs := sampleRecords(200, 1)
	for _, r := range recs {
		got, err := DecodeRecord(appendBody(nil, &r))
		if err != nil {
			t.Fatalf("decode %v: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("round trip mismatch:\n in %+v\nout %+v", r, got)
		}
	}
	// One frame holds them all, lengths of one varint byte and of three
	// (the cap-length labels) alike.
	var got []Record
	if _, err := decodeFrame(frame(recs...)[frameHeader:], new(Record), func(r *Record) error { got = append(got, r.Clone()); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("frame round trip mismatch: %d in, %d out", len(recs), len(got))
	}
	// The sample reaches every edge it promises.
	edges := map[string]bool{}
	for _, r := range recs {
		edges["seq min"] = edges["seq min"] || r.Seq == math.MinInt64
		edges["seq max"] = edges["seq max"] || r.Seq == math.MaxInt64
		edges["tick min"] = edges["tick min"] || r.Tick == math.MinInt64
		edges["tick max"] = edges["tick max"] || r.Tick == math.MaxInt64
		edges["machine -1"] = edges["machine -1"] || (r.Kind == KindDecision && r.Machine == -1)
		edges["empty label"] = edges["empty label"] || (r.Kind == KindArrive && r.ID == "")
		edges["cap label"] = edges["cap label"] || (r.Kind == KindArrive && len(r.ID) == MaxIDLen)
	}
	for _, e := range []string{"seq min", "seq max", "tick min", "tick max", "machine -1", "empty label", "cap label"} {
		if !edges[e] {
			t.Errorf("sampleRecords(200, 1) holds no record with %s", e)
		}
	}
}

// TestRecordSizes pins what a record costs inside a commit frame — its
// length byte, kind byte and varint fields — for the values a served log
// holds (small sequence numbers, ticks and machine indexes), and what a
// single-task decide's commit costs: the 9 bytes of frame header and
// version once, then its batch, its arrive and the digest of its decision
// and one terminal event — 49 bytes, where format 4 logged the decision
// and the event themselves in 56.
func TestRecordSizes(t *testing.T) {
	batch := Record{Kind: KindBatch, NTasks: 1}
	arrive := Record{Kind: KindArrive, Seq: 7000, Type: 3, Tick: 50000, Deadline: 60000,
		Exec: []pmf.Tick{100, 200, 300, 400}, ID: "t-7000"}
	decision := Record{Kind: KindDecision, Seq: 7000, Action: ActMap, Machine: 5, Tick: 50000}
	event := Record{Kind: KindEvent, Seq: 6990, Action: 3, Tick: 50000}
	for _, c := range []struct {
		r    Record
		want int
	}{
		{batch, 3},
		{arrive, 27},
		{decision, 9},
		{event, 8},
		{Record{Kind: KindDrain, Tick: 50000}, 5},
		{Record{Kind: KindDigest, Digest: 1 << 63}, 10},
	} {
		if got := len(AppendRecord(nil, &c.r)); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.r.String(), got, c.want)
		}
	}
	var dig Digest
	dig.Fold(&decision)
	dig.Fold(&event)
	if got, want := len(frame(batch, arrive, Record{Kind: KindDigest, Digest: dig.Sum()})), 49; got != want {
		t.Errorf("single-task commit: %d bytes, want %d", got, want)
	}
	if got, want := len(frame(batch, arrive, decision, event)), 56; got != want {
		t.Errorf("single-task commit with its derived records logged: %d bytes, want %d", got, want)
	}
}

// TestIDCap pins MaxIDLen past its edge (sampleRecords holds IDs at it):
// AppendRecord panics on a longer ID, and the decoder refuses a length
// past the cap.
func TestIDCap(t *testing.T) {
	for _, over := range []Record{
		{Kind: KindBatch, NTasks: 1, ID: strings.Repeat("d", MaxIDLen+1)},
		{Kind: KindArrive, Exec: []pmf.Tick{1}, ID: strings.Repeat("t", MaxIDLen+1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AppendRecord accepted a %d-byte %v id", len(over.ID), over.Kind)
				}
			}()
			AppendRecord(nil, &over)
		}()
	}
	forged := []byte{byte(KindBatch), 2}
	forged = binary.AppendUvarint(forged, MaxIDLen+1)
	forged = append(forged, strings.Repeat("d", MaxIDLen+1)...)
	if _, err := DecodeRecord(forged); err == nil {
		t.Fatal("id past the cap decoded")
	}
}

// refusedPayloads are frame payloads that pass their CRC and are off the
// canonical form — in a record or in the frame around it — each of which
// decodeFrame must refuse; FuzzDecodeRecord seeds from them.
func refusedPayloads() map[string][]byte {
	// p frames one record of kind made of fields, its length the length of
	// its bytes.
	p := func(kind Kind, fields ...[]byte) []byte {
		rec := []byte{byte(kind)}
		for _, f := range fields {
			rec = append(rec, f...)
		}
		return append(binary.AppendUvarint([]byte{frameVersion}, uint64(len(rec))), rec...)
	}
	v := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	u := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	drain := p(KindDrain, v(7))
	return map[string][]byte{
		"no version byte":         {},
		"empty frame":             {frameVersion},
		"version 4":               append([]byte{4}, drain[1:]...),
		"version 3":               append([]byte{3}, drain[1:]...),
		"version 2":               {2, byte(KindDrain), 0},
		"version 1":               append([]byte{1}, drain[1:]...),
		"zero-length record":      {frameVersion, 0},
		"record past the frame":   {frameVersion, 5, byte(KindDrain), 0},
		"second record torn":      append(append([]byte(nil), drain...), 3, byte(KindDrain)),
		"overlong record length":  {frameVersion, 0x82, 0x00, byte(KindDrain), 0},
		"overlong tick":           p(KindDrain, []byte{0x80, 0x00}),
		"overlong zero":           p(KindEvent, v(1), []byte{3}, []byte{0x80, 0x80, 0x00}),
		"overlong exec count":     p(KindArrive, v(0), v(0), v(0), v(0), []byte{0x81, 0x00}, v(1), u(0)),
		"varint past 64 bits":     p(KindDrain, bytes.Repeat([]byte{0xff}, 10), []byte{0x01}),
		"machine overflows int32": p(KindDecision, v(0), []byte{ActMap}, v(math.MaxInt32+1), v(0)),
		"type underflows int32":   p(KindArrive, v(0), v(math.MinInt32-1), v(0), v(0), u(0), u(0)),
		"ntasks overflows int32":  p(KindBatch, v(math.MaxInt32+1)),
		"negative ntasks":         p(KindBatch, v(-1)),
		"exec count past bytes":   p(KindArrive, v(0), v(0), v(0), v(0), u(5), v(1), v(2)),
		"exec count past cap":     p(KindArrive, v(0), v(0), v(0), v(0), u(1<<40)),
		"id length past bytes":    p(KindArrive, v(0), v(0), v(0), v(0), u(0), u(9), []byte("abc")),
		"empty trailing batch id": p(KindBatch, v(1), u(0)),
		"span count past bytes":   p(KindTrace, v(0), []byte{3}, []byte{1, 0, 0}),
		"trailing byte":           p(KindDrain, v(0), []byte{0}),
		"truncated decision":      p(KindDecision, v(0), []byte{ActMap}),
		"truncated digest":        p(KindDigest, []byte{1, 2, 3, 4, 5, 6, 7}),
		"digest trailing byte":    p(KindDigest, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}),
	}
}

func TestDecodeRefusesNonCanonical(t *testing.T) {
	for name, payload := range refusedPayloads() {
		if n, err := decodeFrame(payload, new(Record), nil); err == nil {
			t.Errorf("%s: %x decoded as %d records", name, payload, n)
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
	buf := appendBody(nil, &with)
	got, err := DecodeRecord(buf)
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
	plain := appendBody(nil, &without)
	if len(plain) >= len(buf) {
		t.Fatalf("ID-less batch (%d bytes) not shorter than ID-carrying batch (%d bytes): the ID is not a trailing optional field", len(plain), len(buf))
	}
	back, err := DecodeRecord(plain)
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
		got, err := DecodeRecord(appendBody(nil, &r))
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
	forged := appendBody(nil, &rm)
	forged[1] = MemberRevive + 1 // the kind byte, then the op byte
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
	got, err := DecodeRecord(appendBody(nil, &r))
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
	body := appendBody(nil, &small)
	if _, err := DecodeRecord(body[:len(body)-5]); err == nil {
		t.Fatal("truncated trace record decoded")
	}
	// Patch the count byte (kind u8 + seq varint) past the cap.
	forged := append([]byte(nil), body...)
	forged[1+len(binary.AppendVarint(nil, small.Seq))] = maxSpans + 1
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
	if err := rec.Replay(dir, func(r *Record) error { got = append(got, r.Clone()); return nil }); err != nil {
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

// commits groups recs into commits of 1, 2, 3, 1, 2, 3, ... records and
// returns the segment a writer leaves after committing each, and the number
// of records in the commits before each frame boundary: bounds[k] and
// kept[k] hold the byte offset and record count after commit k-1.
func commits(recs []Record) (seg []byte, bounds, kept []int) {
	bounds, kept = []int{0}, []int{0}
	for i, size := 0, 1; i < len(recs); i, size = i+size, size%3+1 {
		seg = append(seg, frame(recs[i:min(i+size, len(recs))]...)...)
		bounds, kept = append(bounds, len(seg)), append(kept, min(i+size, len(recs)))
	}
	return seg, bounds, kept
}

// TestTornTailRecovery cuts a segment of multi-record commits at every
// seventh byte and checks that (a) the scan recovers exactly the records of
// the commits whose frames survived whole — a torn commit vanishes with all
// its records — and (b) a writer reopening the cut log truncates the tail
// and appends cleanly after the commits it kept.
func TestTornTailRecovery(t *testing.T) {
	recs := sampleRecords(12, 3)
	full, bounds, kept := commits(recs)
	wholeAt := func(cut int) int {
		n := 0
		for k, b := range bounds {
			if b <= cut {
				n = kept[k]
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
		if err := ScanSegment(path, func(r *Record) error { got = append(got, r.Clone()); return nil }); err != nil {
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
		// commit must land right after the valid prefix.
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
		if err := ScanSegment(path, func(r *Record) error { got = append(got, r.Clone()); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != want+1 || !reflect.DeepEqual(got[want], extra) {
			t.Fatalf("cut %d: after reopen got %d records, want %d + drain", cut, len(got), want+1)
		}
	}
}

// TestCorruptedMiddleStopsScan flips a byte inside the second commit: the
// scan must stop at the corruption and surface only the first commit.
func TestCorruptedMiddleStopsScan(t *testing.T) {
	recs := sampleRecords(10, 4)
	full, bounds, kept := commits(recs)
	full[bounds[1]+frameHeader+1] ^= 0xFF // corrupt commit 1's first record
	dir := t.TempDir()
	path := SegmentPath(dir, 0)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := ScanSegment(path, func(r *Record) error { got = append(got, r.Clone()); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != kept[1] {
		t.Fatalf("scan past corruption: got %d records, want %d", len(got), kept[1])
	}
}

// TestWriterFramesEachCommit pins the writer's side of the format: each
// Commit writes what was appended since the last as one frame, nothing
// reaches the file before it, the record counters count records whatever
// the frames, and Checkpoint and Close seal the open commit first, so no
// frame spans two segments.
func TestWriterFramesEachCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(9, 7)
	path := SegmentPath(dir, 0)
	size := func() int {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return int(fi.Size())
	}
	var want []byte
	for _, c := range [][2]int{{0, 4}, {4, 5}, {5, 7}} {
		for i := c[0]; i < c[1]; i++ {
			if err := w.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if size() != len(want) {
			t.Fatalf("records reached the file before their commit: %d bytes, want %d", size(), len(want))
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame(recs[c[0]:c[1]]...)...)
		if data, _ := os.ReadFile(path); !bytes.Equal(data, want) {
			t.Fatalf("commit of records [%d,%d) wrote %x, want %x", c[0], c[1], data, want)
		}
	}
	if err := w.Commit(); err != nil { // nothing open: nothing written
		t.Fatal(err)
	}
	if w.Appended() != 7 || w.Bytes() != int64(len(want)) || size() != len(want) {
		t.Fatalf("after three commits: %d appended, %d bytes (file %d), want 7, %d",
			w.Appended(), w.Bytes(), size(), len(want))
	}
	// The open commit lands in segment 0, before the snapshot.
	if err := w.Append(&recs[7]); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint([]byte("state-after-8")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, append(want, frame(recs[7])...)) {
		t.Fatal("Checkpoint did not seal the open commit into the segment it closes")
	}
	if err := w.Append(&recs[8]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(SegmentPath(dir, 1)); !bytes.Equal(data, frame(recs[8])) {
		t.Fatal("Close did not seal the open commit")
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
	if w.seg != 1 {
		t.Fatalf("after checkpoint: seg %d, want 1", w.seg)
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
		if err := (&Writer{dir: dir, seg: 3}).writeSnapshot(state(40)); err != nil {
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
	if err := (&Writer{dir: dir}).writeSnapshot([]byte("hello snapshot")); err != nil {
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

// TestBackgroundFsyncFailureFailsCommit: under SyncInterval no Commit
// fsyncs, so a failure of the background syncer must reach the owner
// another way: the next Commit returns it, and every one after it. The
// segment file is swapped for a pipe, which takes every write and refuses
// fsync with EINVAL.
func TestBackgroundFsyncFailureFailsCommit(t *testing.T) {
	w, err := OpenWriter(t.TempDir(), WriterOptions{Policy: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go io.Copy(io.Discard, pr) // ends when Close closes pw
	w.fmu.Lock()
	seg := w.f
	w.f = pw
	w.fmu.Unlock()
	seg.Close()

	rec := Record{Kind: KindDrain, Tick: 1}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := w.Append(&rec); err != nil {
			t.Fatalf("append: %v", err)
		}
		err := w.Commit()
		if err != nil {
			if !errors.Is(err, syscall.EINVAL) {
				t.Fatalf("commit failed with %v, want the background fsync's EINVAL", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("commits kept succeeding for 5 s over a segment that refuses fsync")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := w.Commit(); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("the commit after the failure returned %v: the failure is not latched", err)
	}
	if err := w.Close(); !errors.Is(err, syscall.EINVAL) {
		t.Fatalf("close returned %v, want the latched failure", err)
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
