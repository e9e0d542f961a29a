package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcclab/taskdrop/internal/journal"
)

// journalFiles reads every file under a journal root, keyed by its path
// relative to the root.
func journalFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	if err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out[rel] = data
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// copyJournal copies a journal root's files into a fresh directory.
func copyJournal(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	for rel, data := range journalFiles(t, root) {
		path := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveredJournalMatchesUninterrupted holds recovered ==
// uninterrupted to the bytes on disk: a controller that crashes after ack
// k, recovers and serves the rest of the trace leaves a journal directory
// with the same file names and the same bytes as one that served the trace
// without a crash — the same frames, the same checkpoints at the same
// arrivals, the same trims. The cuts fall just before, on and just after a
// checkpoint's commit at batch 1 and batch 16, and once between a
// checkpoint's snapshot rename and the rotation that follows it (the
// snapshot renamed, the old segment holding the commit, no successor
// segment, nothing trimmed). Tracing stays off: trace records hold wall
// clocks.
func TestRecoveredJournalMatchesUninterrupted(t *testing.T) {
	const every = 20
	tr := testTrace(t, 200, 41)
	ctx := context.Background()
	for _, tc := range []struct {
		batch     int
		cuts      []int
		preRotate int // the cut that also runs between rename and rotation
	}{
		{1, []int{59, 60, 61}, 60},
		{16, []int{48, 64, 80}, 64},
	} {
		cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Fsync: "never", SnapshotEvery: every}
		serve := func(cfg Config, lo, hi int) *Controller {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			decideRange(t, c, tr, lo, hi, tc.batch)
			return c
		}
		cfg.JournalDir = t.TempDir()
		if _, err := serve(cfg, 0, len(tr.Tasks)).Drain(ctx); err != nil {
			t.Fatal(err)
		}
		want := journalFiles(t, cfg.JournalDir)
		finish := func(name, root string, from int) {
			t.Helper()
			rc := cfg
			rc.JournalDir = root
			if _, err := serve(rc, from, len(tr.Tasks)).Drain(ctx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := journalFiles(t, root)
			for rel, data := range want {
				if !bytes.Equal(got[rel], data) {
					t.Errorf("%s: %s holds %d bytes, the uninterrupted run's %d, or differs", name, rel, len(got[rel]), len(data))
				}
			}
			for rel := range got {
				if _, ok := want[rel]; !ok {
					t.Errorf("%s: %s is not in the uninterrupted run's journal", name, rel)
				}
			}
		}
		for _, k := range tc.cuts {
			cfg.JournalDir = t.TempDir()
			c := serve(cfg, 0, k)
			crash(c)
			finish(fmt.Sprintf("batch %d, crash after ack %d", tc.batch, k), cfg.JournalDir, k)
		}

		// Between rename and rotation: the log as it stood one commit before
		// the cut, plus the checkpoint commit's segment and its snapshot.
		cfg.JournalDir = t.TempDir()
		c := serve(cfg, 0, tc.preRotate-tc.batch)
		before := copyJournal(t, cfg.JournalDir)
		decideRange(t, c, tr, tc.preRotate-tc.batch, tc.preRotate, tc.batch)
		crash(c)
		dir, cut := ShardJournalDir(cfg.JournalDir, 0), ShardJournalDir(before, 0)
		snaps, err := journal.Snapshots(dir)
		if err != nil || len(snaps) == 0 {
			t.Fatalf("no snapshot after the checkpoint commit: %v", err)
		}
		k := snaps[len(snaps)-1]
		for _, path := range []func(string, int) string{journal.SegmentPath, journal.SnapshotPath} {
			data, err := os.ReadFile(path(dir, k))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path(cut, k), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := os.Stat(journal.SegmentPath(cut, k+1)); !os.IsNotExist(err) {
			t.Fatalf("segment %d exists before the rotation: %v", k+1, err)
		}
		finish(fmt.Sprintf("batch %d, cut between snapshot %d's rename and the rotation", tc.batch, k), before, tc.preRotate)
	}
}

// TestShardCommitEndsWithDigest pins format 5's commit from the shard's
// side: a commit whose inputs derived records ends with one digest record,
// its last, whose sum is the Digest of what replay derives from its inputs
// in order; a commit that derived nothing logs no digest; and no digest
// lands in a frame apart from its inputs, checkpoints and the drain
// included.
func TestShardCommitEndsWithDigest(t *testing.T) {
	tr := testTrace(t, 60, 43)
	cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 10}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, 30, 1)
	decideRange(t, c, tr, 30, 60, 3)
	sh := c.shards[0]
	// A commit whose only record derives nothing: a trace.
	if err := sh.do(context.Background(), func() {
		sh.emit(&journal.Record{Kind: journal.KindTrace, Seq: 1})
		if err := sh.commit(); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	dir := ShardJournalDir(cfg.JournalDir, 0)
	plan, err := journal.Oldest(dir)
	if err != nil {
		t.Fatal(err)
	}
	derived := derivedUnder(t, cfg.JournalDir, 0)
	digests, bare := 0, 0
	for _, seg := range plan.TailSegments {
		data, err := os.ReadFile(journal.SegmentPath(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		bounds := frameBounds(data)
		var kinds []journal.Kind
		var sums []uint64
		if err := journal.ScanSegment(journal.SegmentPath(dir, seg), func(r *journal.Record) error {
			kinds = append(kinds, r.Kind)
			if r.Kind == journal.KindDigest {
				sums = append(sums, r.Digest)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Walk the frames: each frame's records are the next len(recordEnds)
		// kinds of the segment.
		at := 0
		for f := 0; f+1 < len(bounds); f++ {
			n := len(recordEnds(data[bounds[f]:bounds[f+1]]))
			frame := kinds[at : at+n]
			at += n
			for i, k := range frame {
				if k == journal.KindDigest && i != n-1 {
					t.Fatalf("segment %d frame %d: a digest at record %d of %d: %v", seg, f, i, n, frame)
				}
			}
			inputs := false
			for _, k := range frame {
				inputs = inputs || k == journal.KindArrive || k == journal.KindDrain
			}
			switch last := frame[n-1]; {
			case last == journal.KindDigest && !inputs:
				t.Fatalf("segment %d frame %d: a digest apart from the inputs it sums: %v", seg, f, frame)
			case last != journal.KindDigest && inputs:
				t.Fatalf("segment %d frame %d: inputs that derive records, no digest: %v", seg, f, frame)
			case last != journal.KindDigest:
				bare++
			}
		}
		for i, recs := range derived[seg] {
			if len(recs) == 0 || digestOf(recs) != sums[i] {
				t.Fatalf("segment %d digest %d: logged %016x, replay derives %016x from %d records", seg, i, sums[i], digestOf(recs), len(recs))
			}
		}
		digests += len(sums)
	}
	if digests == 0 || bare != 1 {
		t.Fatalf("%d digests and %d commits without one on the log, want some and 1 (the trace's)", digests, bare)
	}
}

// TestDrainOverFailedJournalFails: a drain whose commit, final checkpoint
// or close the log does not take reports it — the merged Result together
// with ErrJournalFailed, and 503 on POST /v1/drain — instead of answering
// 200 with a result a restart may not find on the log.
func TestDrainOverFailedJournalFails(t *testing.T) {
	tr := testTrace(t, 40, 47)
	for _, viaHTTP := range []bool{false, true} {
		cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", JournalDir: t.TempDir(), Fsync: "never"}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		decideRange(t, c, tr, 0, 40, 4)
		// Close the writer's file behind the shard: the drain's commit fails.
		sh := c.shards[0]
		if err := sh.do(context.Background(), func() { _ = sh.jw.Close() }); err != nil {
			t.Fatal(err)
		}
		if viaHTTP {
			srv := newTestServerFor(t, c)
			resp, err := srv.Client().Post(srv.URL+"/v1/drain", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("POST /v1/drain over a failed journal = %d, want 503", resp.StatusCode)
			}
			continue
		}
		res, err := c.Drain(context.Background())
		if !errors.Is(err, ErrJournalFailed) {
			t.Fatalf("drain over a failed journal returned %v, want ErrJournalFailed", err)
		}
		if res == nil || res.Total == 0 {
			t.Fatalf("drain over a failed journal returned result %+v, want the merged one", res)
		}
		if !sh.journalFailed.Load() {
			t.Fatal("the drain's journal failure is not latched")
		}
	}
}
