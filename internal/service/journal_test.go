package service

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// crash hard-stops a controller's shard loops without draining, final
// checkpoints or writer closes — the in-process stand-in for kill -9. The
// on-disk journal is left exactly as the last acknowledged commit wrote
// it, which is what recovery must be able to continue from.
func crash(c *Controller) {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	for _, sh := range c.shards {
		close(sh.cmds)
		<-sh.loopDone
	}
}

// decideRange feeds tasks [lo,hi) of the trace in fixed-size batches.
func decideRange(t testing.TB, c *Controller, tr *workload.Trace, lo, hi, batch int) []Decision {
	t.Helper()
	var out []Decision
	for ; lo < hi; lo += batch {
		end := min(lo+batch, hi)
		req := DecideRequest{Tasks: make([]TaskSpec, end-lo)}
		for i, task := range tr.Tasks[lo:end] {
			req.Tasks[i] = TaskSpec{
				ID:   fmt.Sprintf("t%d", task.ID),
				Type: int(task.Type), Arrival: task.Arrival,
				Deadline: task.Deadline, ExecByType: task.ExecByType,
			}
		}
		resp, err := c.Decide(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, resp.Decisions...)
	}
	return out
}

// TestJournalCrashRecovery is the tentpole property end to end: kill a
// journaling controller mid-stream, reopen the journal, and the recovered
// controller must (a) report byte-identical shard stats, (b) make exactly
// the decisions an uninterrupted reference controller makes for the rest
// of the stream — sequence numbers included — and (c) drain to the
// identical final Result.
func TestJournalCrashRecovery(t *testing.T) {
	for _, tc := range []struct {
		shards, snapEvery int
	}{
		{1, 60},   // checkpoints + tail replay
		{1, -1},   // no checkpoints: full replay from segment 0
		{2, 60},   // sharded logs recover independently
		{2, 7000}, // cadence never reached: snapshot exists only if drained
	} {
		t.Run(fmt.Sprintf("shards=%d/snap=%d", tc.shards, tc.snapEvery), func(t *testing.T) {
			tr := testTrace(t, 400, 7)
			jcfg := Config{
				Profile: "video", Mapper: "PAM", Dropper: "heuristic",
				Shards: tc.shards, Router: "rr",
				JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: tc.snapEvery,
			}
			rcfg := jcfg
			rcfg.JournalDir = ""

			ref, err := New(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			jc, err := New(jcfg)
			if err != nil {
				t.Fatal(err)
			}

			const cut = 250
			wantHead := decideRange(t, ref, tr, 0, cut, 8)
			gotHead := decideRange(t, jc, tr, 0, cut, 8)
			if !reflect.DeepEqual(gotHead, wantHead) {
				t.Fatal("journaled controller diverged from reference before the crash")
			}
			pre, err := jc.ShardStats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			crash(jc)

			jc2, err := New(jcfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			post, err := jc2.ShardStats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(post, pre) {
				t.Fatalf("recovered shard stats diverged:\n pre %+v\npost %+v", pre, post)
			}

			wantTail := decideRange(t, ref, tr, cut, len(tr.Tasks), 8)
			gotTail := decideRange(t, jc2, tr, cut, len(tr.Tasks), 8)
			if !reflect.DeepEqual(gotTail, wantTail) {
				t.Fatal("recovered controller diverged from reference after the crash")
			}
			if gotTail[0].Seq != cut {
				t.Fatalf("first post-recovery seq = %d, want %d (no reissue, no gap)", gotTail[0].Seq, cut)
			}

			got, err := jc2.Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("drained results diverged:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestJournalGracefulDrainThenReopen drains cleanly (final checkpoint, no
// tail) and reopens the journal: the watermark survives, the drained
// queues are empty, and new decisions continue the sequence.
func TestJournalGracefulDrainThenReopen(t *testing.T) {
	tr := testTrace(t, 150, 9)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 40,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, len(tr.Tasks), 8)
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	stats, err := c2.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	maxWatermark := int64(-1)
	for _, ss := range stats {
		if ss.Live.Batch != 0 || ss.Live.Queued != 0 || ss.Live.Running != 0 {
			t.Fatalf("shard %d reopened with live work: %+v", ss.Shard, ss.Live)
		}
		if ss.SeqWatermark > maxWatermark {
			maxWatermark = ss.SeqWatermark
		}
	}
	if maxWatermark != int64(len(tr.Tasks))-1 {
		t.Fatalf("recovered watermark %d, want %d", maxWatermark, len(tr.Tasks)-1)
	}

	// New work continues the sequence where the drained run stopped.
	last := tr.Tasks[len(tr.Tasks)-1]
	resp, err := c2.Decide(context.Background(), &DecideRequest{Tasks: []TaskSpec{{
		Type: int(last.Type), Arrival: last.Arrival + 10, Deadline: last.Arrival + 500,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decisions[0].Seq != len(tr.Tasks) {
		t.Fatalf("post-reopen seq = %d, want %d", resp.Decisions[0].Seq, len(tr.Tasks))
	}
	crash(c2)
}

// TestJournalManifestMismatch refuses to continue a journal written under
// a different decision-shaping configuration.
func TestJournalManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", JournalDir: dir, Fsync: "never"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	crash(c)

	bad := cfg
	bad.QueueCap = 5
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("manifest mismatch accepted: %v", err)
	}

	// A router change is allowed: it shapes future routing, not replay.
	ok := cfg
	ok.Router = "mass"
	c2, err := New(ok)
	if err != nil {
		t.Fatalf("router-only change rejected: %v", err)
	}
	crash(c2)
}

// TestJournalBadFsyncSpec rejects unknown fsync policies up front.
func TestJournalBadFsyncSpec(t *testing.T) {
	_, err := New(Config{Profile: "video", JournalDir: t.TempDir(), Fsync: "sometimes"})
	if err == nil {
		t.Fatal("unknown fsync policy accepted")
	}
}

// TestVerifyShardCleanAndCrashed proves hcreplay's core claim on real
// journals: a drained log and a crashed log both verify — every logged
// decision and event matches the from-scratch deterministic replay — and
// a forged decision record is caught.
func TestVerifyShardCleanAndCrashed(t *testing.T) {
	tr := testTrace(t, 300, 11)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 50,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, 200, 8)
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats, err := VerifyAll(cfg.JournalDir)
	if err != nil {
		t.Fatalf("drained journal failed verification: %v", err)
	}
	var arrives int
	for _, st := range stats {
		arrives += st.Arrives
		if st.Checkpoints == 0 {
			t.Errorf("shard %d verified no checkpoints", st.Shard)
		}
		if st.Unflushed != 0 {
			t.Errorf("shard %d: %d unflushed records after a graceful drain", st.Shard, st.Unflushed)
		}
	}
	if arrives != 200 {
		t.Errorf("verified %d arrives, want 200", arrives)
	}

	// Crashed journal: reopen, feed more, kill. Still verifies.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c2, tr, 200, 300, 8)
	crash(c2)
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("crashed journal failed verification: %v", err)
	}

	// Forge a decision record onto shard 0's log: the replay cannot derive
	// it, so verification must fail.
	w, err := journal.OpenWriter(ShardJournalDir(cfg.JournalDir, 0), journal.WriterOptions{Policy: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&journal.Record{Kind: journal.KindDecision, Seq: 999999, Action: journal.ActMap, Machine: 2, Tick: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyShard(cfg.JournalDir, 0); err == nil {
		t.Fatal("forged decision record passed verification")
	}
}

// TestVerifyWarmJournalColdReplay is the end-to-end transparency proof
// for the persistent chain caches: the live server records its journal
// with caches warm, and the same log must verify both against a warm
// replay (caches on, hcreplay's default) and against a cold replay
// (ColdChains — every cache invalidated at each event). If signature-gated
// reuse ever changed a single decision, the cold pass would diverge from
// the warm recording on that record.
func TestVerifyWarmJournalColdReplay(t *testing.T) {
	tr := testTrace(t, 260, 17)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 40,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, 260, 8)
	// The recording side must actually have been warm.
	var rootHits uint64
	for _, sh := range c.shards {
		rootHits += sh.eng.Calc().Stats().RootHits
	}
	if rootHits == 0 {
		t.Fatal("controller served the trace without a single warm root hit")
	}
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("warm replay failed verification: %v", err)
	}
	var arrives int
	for s := 0; s < cfg.Shards; s++ {
		r, err := newShardReplayer(cfg.JournalDir, s, true)
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.verify(cfg.JournalDir, s)
		if err != nil {
			t.Fatalf("cold replay diverged from the warm recording: %v", err)
		}
		arrives += st.Arrives
	}
	if arrives != 260 {
		t.Errorf("cold replay verified %d arrives, want 260", arrives)
	}
}

// TestAuditDecision replays up to one logged decision and explains it.
func TestAuditDecision(t *testing.T) {
	tr := testTrace(t, 120, 13)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never",
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := decideRange(t, c, tr, 0, len(tr.Tasks), 6)
	crash(c)

	var buf strings.Builder
	if err := AuditDecision(&buf, cfg.JournalDir, 0, 60, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{
		"decision seq 60", "queues and Eq. 1 forecasts", "candidate: P(on time)=",
		fmt.Sprintf("replayed decision: %s", want[60].Action), "logged decision:   decision seq=60",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("audit output missing %q:\n%s", needle, out)
		}
	}
	if _, err := VerifyShard(cfg.JournalDir, 99); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := AuditDecision(io.Discard, cfg.JournalDir, 0, 99999, false); err == nil {
		t.Error("unknown decision seq accepted")
	}
}
