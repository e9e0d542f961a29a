package journal

import (
	"path/filepath"
	"reflect"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// writeSingleTaskCommits writes n commits shaped like a served single-task
// decide's — batch, arrive, decision, terminal event; no labels — to a
// fresh log and returns the path of its segment.
func writeSingleTaskCommits(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		seq, tick := int64(i), pmf.Tick(10*i)
		for _, r := range []Record{
			{Kind: KindBatch, NTasks: 1},
			{Kind: KindArrive, Seq: seq, Type: int32(i % 4), Tick: tick, Deadline: tick + 900, Exec: []pmf.Tick{120, 95, 310, pmf.Tick(i % 700)}},
			{Kind: KindDecision, Seq: seq, Action: ActMap, Machine: int32(i % 8), Tick: tick},
			{Kind: KindEvent, Seq: seq - 3, Action: 3, Tick: tick},
		} {
			if err := w.Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, filepath.Base(SegmentPath(dir, 0)))
}

// TestScanAllocsDoNotGrowWithTheLog holds a scan to a fixed number of
// allocations whatever the log's length: every record is decoded into one
// Record whose execution-time storage is reused, so recovering a long tail
// costs no more garbage than a short one. A record's label is the one
// thing decoded into storage of its own (a new string), and these carry
// none.
func TestScanAllocsDoNotGrowWithTheLog(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	scanAllocs := func(n int) float64 {
		path := writeSingleTaskCommits(t, n)
		records := 0
		allocs := testing.AllocsPerRun(5, func() {
			records = 0
			if err := ScanSegment(path, func(*Record) error { records++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if records != 4*n {
			t.Fatalf("scanned %d records, wrote %d", records, 4*n)
		}
		return allocs
	}
	const n = 500
	if short, long := scanAllocs(n), scanAllocs(4*n); long != short {
		t.Fatalf("scanning %d commits allocates %.0f times, %d commits %.0f times: a scan must not allocate per record", n, short, 4*n, long)
	}
}

// TestScanReusesTheRecord pins ScanSegment's contract: the *Record each
// callback is handed is the same one, refilled for the next record, so a
// caller that keeps a record keeps a Clone — a plain copy shares the
// execution times the next arrive overwrites.
func TestScanReusesTheRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Kind: KindArrive, Seq: 0, Tick: 1, Deadline: 50, Exec: []pmf.Tick{7, 8}, ID: "a"},
		{Kind: KindArrive, Seq: 1, Tick: 2, Deadline: 60, Exec: []pmf.Tick{9, 10}, ID: "b"},
	}
	for i := range want {
		if err := w.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var handed []*Record
	var copies, clones []Record
	if err := ScanSegment(SegmentPath(dir, 0), func(r *Record) error {
		handed = append(handed, r)
		copies = append(copies, *r)
		clones = append(clones, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(handed) != 2 || handed[0] != handed[1] {
		t.Fatalf("the scan handed over %d records at %p: want one Record, reused", len(handed), handed)
	}
	if !reflect.DeepEqual(clones, want) {
		t.Fatalf("clones %+v, want %+v", clones, want)
	}
	if copies[0].Exec[0] != want[1].Exec[0] {
		t.Fatalf("a plain copy of the first record kept Exec %v: the scan no longer reuses its storage, and this contract is stale", copies[0].Exec)
	}
}
