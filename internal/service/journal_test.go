package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// crash hard-stops a controller's shards without draining, final
// checkpoints or writer closes — the in-process stand-in for kill -9: it
// takes every shard's turn and never gives it back. The on-disk journal is
// left exactly as the last acknowledged commit wrote it, which is what
// recovery must be able to continue from.
func crash(c *Controller) {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	for _, sh := range c.shards {
		sh.turn <- struct{}{}
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

// crashRecover runs the trace through an unjournaled reference controller,
// then, for each cut, through a journaling controller that crashes after
// task cut and recovers: the recovered controller must report the shard
// stats it crashed with, make the reference's decisions for the rest of
// the trace, drain to the reference's Result and leave a journal that
// verifies.
func crashRecover(t *testing.T, jcfg Config, tr *workload.Trace, batch int, cuts []int) {
	t.Helper()
	rcfg := jcfg
	rcfg.JournalDir = ""
	ref, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	want := decideRange(t, ref, tr, 0, len(tr.Tasks), batch)
	wantResult, err := ref.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		jcfg.JournalDir = t.TempDir()
		jc, err := New(jcfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := decideRange(t, jc, tr, 0, cut, batch); !reflect.DeepEqual(got, want[:cut]) {
			t.Fatalf("cut %d: journaled controller diverged from reference before the crash", cut)
		}
		pre, err := jc.ShardStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		crash(jc)

		jc2, err := New(jcfg)
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		post, err := jc2.ShardStats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(post, pre) {
			t.Fatalf("cut %d: recovered shard stats diverged:\n pre %+v\npost %+v", cut, pre, post)
		}
		gotTail := decideRange(t, jc2, tr, cut, len(tr.Tasks), batch)
		if gotTail[0].Seq != cut {
			t.Fatalf("cut %d: first post-recovery seq = %d (no reissue, no gap)", cut, gotTail[0].Seq)
		}
		for i, d := range gotTail {
			if d != want[cut+i] {
				t.Fatalf("cut %d: recovered controller diverged from reference at task %d:\n got %+v\nwant %+v", cut, cut+i, d, want[cut+i])
			}
		}
		got, err := jc2.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantResult) {
			t.Fatalf("cut %d: drained results diverged:\n got %+v\nwant %+v", cut, got, wantResult)
		}
		if _, err := VerifyAll(jcfg.JournalDir); err != nil {
			t.Fatalf("cut %d: journal after crash and recovery: %v", cut, err)
		}
	}
}

// TestJournalCrashRecovery is the tentpole property end to end: kill a
// journaling controller mid-stream, reopen the journal, and the recovered
// controller must (a) report byte-identical shard stats, (b) make exactly
// the decisions an uninterrupted reference controller makes for the rest
// of the stream — sequence numbers and routing included — (c) drain to the
// identical final Result, and (d) leave a journal that verifies. The kill
// point is an input: four checkpoint cadences at one point, then every
// point across two checkpoint intervals under each routing policy: the
// two that read a position (rr, p2c) and the class hash.
func TestJournalCrashRecovery(t *testing.T) {
	base := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Fsync: "never"}
	for _, tc := range []struct {
		shards, snapEvery int
	}{
		{1, 60},   // checkpoints + tail replay
		{1, -1},   // no checkpoints: full replay from segment 0
		{2, 60},   // sharded logs recover independently
		{2, 7000}, // cadence never reached: snapshot exists only if drained
	} {
		t.Run(fmt.Sprintf("shards=%d/snap=%d", tc.shards, tc.snapEvery), func(t *testing.T) {
			cfg := base
			cfg.Shards, cfg.Router, cfg.SnapshotEvery = tc.shards, "rr", tc.snapEvery
			crashRecover(t, cfg, testTrace(t, 400, 7), 8, []int{250})
		})
	}
	var sweep []int
	for k := 60; k <= 110; k++ {
		sweep = append(sweep, k)
	}
	for _, tc := range []struct {
		router string
		shards int
	}{{"rr", 2}, {"hash", 2}, {"p2c", 3}} {
		t.Run(fmt.Sprintf("sweep/%s/shards=%d", tc.router, tc.shards), func(t *testing.T) {
			cfg := base
			cfg.Shards, cfg.Router, cfg.SnapshotEvery = tc.shards, tc.router, 60
			crashRecover(t, cfg, testTrace(t, 200, 7), 1, sweep)
		})
	}
}

// TestEveryPolicyRecoversAcrossCheckpoint runs the crash-and-recover
// property under every built-in mapper (with the heuristic dropper) and
// every built-in dropper (with PAM), checkpointing and with a grace window.
// Recovery restores a checkpoint and re-executes the tail on freshly built
// shards, so a policy carrying state the engine snapshot does not hold —
// a mapper's own random stream, say — replays to different decisions and
// fails here.
func TestEveryPolicyRecoversAcrossCheckpoint(t *testing.T) {
	type policies struct{ mapper, dropper string }
	var cases []policies
	for _, m := range mapping.Names() {
		cases = append(cases, policies{m, "heuristic"})
	}
	for _, d := range core.PolicyNames() {
		if !strings.EqualFold(d, "heuristic") {
			cases = append(cases, policies{"PAM", d})
		}
	}
	tr := testTrace(t, 400, 7)
	for _, pc := range cases {
		t.Run(pc.mapper+"+"+pc.dropper, func(t *testing.T) {
			cfg := Config{
				Profile: "video", Mapper: pc.mapper, Dropper: pc.dropper,
				Fsync: "never", SnapshotEvery: 60, Grace: 40,
			}
			crashRecover(t, cfg, tr, 8, []int{250})
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
	// The aggregate counters come back as the sum of the shards'.
	if got := c2.Metrics().Total(); got != int64(len(tr.Tasks)) {
		t.Fatalf("recovered aggregate decided %d tasks, want %d", got, len(tr.Tasks))
	}
	if got, want := c2.Metrics().requests.Load(), stats[0].Requests+stats[1].Requests; got != want {
		t.Fatalf("recovered aggregate requests %d, want the shards' %d", got, want)
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

// frameBounds returns the byte offset of every commit frame of a segment
// (u32 payload length, u32 CRC-32C, payload), then the segment's length.
func frameBounds(seg []byte) []int {
	var bounds []int
	for off := 0; off < len(seg); off += 8 + int(binary.LittleEndian.Uint32(seg[off:])) {
		bounds = append(bounds, off)
	}
	return append(bounds, len(seg))
}

// recordEnds returns the offset within one commit frame after each of its
// records: the payload is a version byte, then each record as its uvarint
// length and its bytes.
func recordEnds(frame []byte) []int {
	var ends []int
	for off := 9; off < len(frame); {
		n, k := binary.Uvarint(frame[off:])
		off += k + int(n)
		ends = append(ends, off)
	}
	return ends
}

// isInput reports whether a record kind is an input of the shard (the kinds
// shard.apply changes it by), as opposed to one an input derives.
func isInput(k journal.Kind) bool {
	return k == journal.KindBatch || k == journal.KindArrive || k == journal.KindMembership || k == journal.KindDrain
}

// TestEveryPrefixRecovers is the oracle of the log's one ordering rule —
// an input record precedes every record it causes — and of its framing —
// each commit reaches the log whole or not at all — which together make
// every prefix of a log one that recovery can continue. It records one
// shard's journal through decide batches, a remove with handoff, a remove
// without, an add, a refused revive (which must log nothing), a revive and a
// drain, and leaves it as a kill -9 just before the drain's final
// checkpoint would. Then it cuts a copy at every record boundary and inside
// every record — before every commit frame and all through the inside of
// each — and on each copy:
//   - hcreplay -verify (VerifyAll) is clean and New starts;
//   - the recovered /v1/stats equal those of an unjournaled controller fed
//     the inputs of the copy's whole commits through Decide and Admin; past
//     the drain, the recovered shard is drained and its census is the
//     reference's after Drain;
//   - the recovered controller continues the sequence, and after another
//     kill recovers a second time to what it stood at, on a log that
//     verifies.
func TestEveryPrefixRecovers(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 90, 5)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	decide := func(n int) { decideRange(t, c, tr, fed, fed+n, 6); fed += n }
	decide(18)
	admin(t, c, AdminMachineRequest{Op: "remove", Machine: 2, Handoff: true})
	decide(12)
	admin(t, c, AdminMachineRequest{Op: "remove", Machine: 5})
	decide(12)
	admin(t, c, AdminMachineRequest{Op: "add", Type: 0})
	decide(12)
	appended := c.shards[0].jw.Appended()
	if _, err := c.Admin(ctx, &AdminMachineRequest{Op: "revive", Machine: 3}); !errors.Is(err, errAdminConflict) {
		t.Fatalf("revive of a live machine: %v, want a conflict", err)
	}
	if n := c.shards[0].jw.Appended() - appended; n != 0 {
		t.Fatalf("a refused membership operation logged %d records", n)
	}
	admin(t, c, AdminMachineRequest{Op: "revive", Machine: 2})
	decide(12)
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The drain's checkpoint is the log's only one: without it and the empty
	// segment after it, the log is what a kill -9 just before it leaves.
	dir := ShardJournalDir(cfg.JournalDir, 0)
	for _, p := range []string{journal.SnapshotPath(dir, 0), journal.SegmentPath(dir, 1)} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(cfg.JournalDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(journal.SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journal.Record
	if err := journal.ScanSegment(journal.SegmentPath(dir, 0), func(r *journal.Record) error {
		recs = append(recs, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(seg)
	commits := len(bounds) - 1
	// Record i spans [start[i], end[i]) of the segment, in commit frame
	// frameOf[i]; kept[k] counts the records of the commits before frame k.
	var start, end, frameOf []int
	kept := []int{0}
	for k := 0; k < commits; k++ {
		at := bounds[k] + 9 // past the frame header and the version byte
		for _, e := range recordEnds(seg[bounds[k]:bounds[k+1]]) {
			start, end, frameOf = append(start, at), append(end, bounds[k]+e), append(frameOf, k)
			at = bounds[k] + e
		}
		kept = append(kept, len(start))
	}
	// What follows the last decision is the drain: its marker and the
	// terminal events of the work it ran to completion.
	drainAt, lastDecision, members := -1, -1, map[int]bool{}
	for i, r := range recs {
		switch r.Kind {
		case journal.KindDrain:
			drainAt = i
		case journal.KindDecision:
			lastDecision = i
		case journal.KindMembership:
			members[i] = true
		}
	}
	// Eleven decides of six tasks, four membership operations and the drain:
	// one commit each.
	if commits != 16 || kept[commits] != len(recs) || drainAt < 0 || len(recs)-lastDecision < 10 || len(members) != 4 {
		t.Fatalf("recorded %d records (%d framed) in %d commits, %d after the last decision, %d membership records",
			len(recs), kept[commits], commits, len(recs)-1-lastDecision, len(members))
	}

	// reference feeds an unjournaled controller the inputs among recs, as
	// the live one received them, and returns its /v1/stats — or, once the
	// inputs hold the drain, its census after Drain.
	rcfg := cfg
	rcfg.JournalDir = ""
	type refState struct {
		stats  []ShardSnapshot
		census sim.Live
	}
	reference := func(recs []journal.Record) refState {
		ref, err := New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		var batch []TaskSpec
		flush := func() {
			if len(batch) > 0 {
				if _, err := ref.Decide(ctx, &DecideRequest{Tasks: batch}); err != nil {
					t.Fatal(err)
				}
			}
			batch = nil
		}
		for _, r := range recs {
			switch {
			case !isInput(r.Kind):
				continue
			case r.Kind == journal.KindArrive:
				batch = append(batch, TaskSpec{ID: r.ID, Type: int(r.Type), Arrival: r.Tick, Deadline: r.Deadline, ExecByType: r.Exec})
				continue
			}
			flush()
			switch r.Kind {
			case journal.KindMembership:
				admin(t, ref, AdminMachineRequest{Op: sim.MemberKind(r.Action).String(), Machine: ref.cl.Global(0, int(r.Machine)), Type: int(r.Type), Handoff: r.NTasks != 0})
			case journal.KindDrain:
				if _, err := ref.Drain(ctx); err != nil {
					t.Fatal(err)
				}
				return refState{census: ref.shards[0].eng.LiveCounts()}
			}
		}
		flush()
		stats, err := ref.ShardStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		crash(ref)
		return refState{stats: stats}
	}
	refs := map[int]refState{} // by the number of inputs fed

	for i := 0; i <= len(recs); i++ {
		type cut struct {
			name string
			off  int
		}
		cuts := []cut{{fmt.Sprintf("record-%03d/before", i), len(seg)}}
		whole := recs // a torn commit is no commit
		if i < len(recs) {
			// Before the first record of a commit is before its frame.
			before, k := start[i], frameOf[i]
			if i == kept[k] {
				before = bounds[k]
			}
			kind := strings.Fields(recs[i].String())[0]
			cuts = []cut{
				{fmt.Sprintf("record-%03d-%s/before", i, kind), before},
				{fmt.Sprintf("record-%03d-%s/inside", i, kind), (start[i] + end[i]) / 2},
			}
			whole = recs[:kept[k]]
		}
		inputs, arrives := 0, 0
		for _, r := range whole {
			if isInput(r.Kind) {
				inputs++
			}
			if r.Kind == journal.KindArrive {
				arrives++
			}
		}
		want, ok := refs[inputs]
		if !ok {
			want = reference(whole)
			refs[inputs] = want
		}
		for _, cut := range cuts {
			t.Run(cut.name, func(t *testing.T) {
				cc := cfg
				cc.JournalDir = t.TempDir()
				cdir := ShardJournalDir(cc.JournalDir, 0)
				if err := os.MkdirAll(cdir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(cc.JournalDir, manifestName), manifest, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(journal.SegmentPath(cdir, 0), seg[:cut.off], 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := VerifyAll(cc.JournalDir); err != nil {
					t.Fatalf("verify: %v", err)
				}
				c2, err := New(cc)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				if want.stats == nil {
					snap, err := c2.Stats(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if snap.Live != want.census || snap.Live.Batch+snap.Live.Queued+snap.Live.Running != 0 {
						t.Fatalf("recovered census past the drain marker %+v, the drained reference's %+v", snap.Live, want.census)
					}
				} else {
					got, err := c2.ShardStats(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want.stats) {
						t.Fatalf("recovered /v1/stats diverged from the reference:\n got %+v\nwant %+v", got, want.stats)
					}
				}
				// The recovered controller goes on where the copy stops, and a
				// second kill recovers it to where it stood.
				if d := decideRange(t, c2, tr, arrives, arrives+6, 6); d[0].Seq != arrives {
					t.Fatalf("first post-recovery seq = %d, want %d", d[0].Seq, arrives)
				}
				pre, err := c2.ShardStats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				crash(c2)
				c3, err := New(cc)
				if err != nil {
					t.Fatalf("second recovery: %v", err)
				}
				post, err := c3.ShardStats(ctx)
				crash(c3)
				if err != nil || !reflect.DeepEqual(post, pre) {
					t.Fatalf("second recovery diverged (%v):\n pre %+v\npost %+v", err, pre, post)
				}
				if _, err := VerifyAll(cc.JournalDir); err != nil {
					t.Fatalf("verify after continuing: %v", err)
				}
			})
		}
	}
}

// TestJournalRecoversDrainMarker kills the server between drainCmd's commit
// of the drain marker and the events it caused, and its final checkpoint:
// the marker is an input record like any other, so the recovered shard is
// drained — not serving the pre-drain queues under a log that says they are
// gone — takes the rest of the trace, and its journal verifies.
func TestJournalRecoversDrainMarker(t *testing.T) {
	tr := testTrace(t, 200, 9)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 40,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, 120, 8)
	sh := c.shards[0]
	var cerr error
	if err := sh.do(context.Background(), func() {
		sh.emit(&journal.Record{Kind: journal.KindDrain, Tick: sh.eng.Now()})
		sh.drain()
		cerr = sh.jw.Commit()
	}); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	crash(c)

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery across a drain marker: %v", err)
	}
	snap, err := c2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Live.Batch != 0 || snap.Live.Queued != 0 || snap.Live.Running != 0 {
		t.Fatalf("shard recovered un-drained past its drain marker: %+v", snap.Live)
	}
	if got := decideRange(t, c2, tr, 120, len(tr.Tasks), 8); got[0].Seq != 120 {
		t.Fatalf("first post-recovery seq = %d, want 120", got[0].Seq)
	}
	crash(c2)
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("journal continued past a recovered drain marker: %v", err)
	}
}

// TestCrashInsideCommitDoesNotPoisonRetry: a crash inside a commit tears
// its frame, which the journal drops whole, so on disk the commit never
// happened. A single-shard controller acks 4-task requests under decision
// IDs; its segment is cut inside the last commit, right after that commit's
// second arrive. After the restart a retry of that ID executes afresh and
// answers 200, byte-identical to an uninterrupted controller's answer, and
// the continued journal verifies and recovers a second time. While every
// record had a frame of its own, the cut kept the batch record and two of
// its arrives, and recovery poisoned the ID: the retry answered 409.
func TestCrashInsideCommitDoesNotPoisonRetry(t *testing.T) {
	tr := testTrace(t, 40, 9)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
	}
	request := func(k int) *DecideRequest {
		req := &DecideRequest{DecisionID: fmt.Sprintf("commit-%d", k), Tasks: make([]TaskSpec, 4)}
		for i, task := range tr.Tasks[4*k : 4*k+4] {
			req.Tasks[i] = TaskSpec{ID: fmt.Sprintf("t%d", task.ID), Type: int(task.Type),
				Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
		}
		return req
	}
	decide := func(srv *httptest.Server, k int) []byte {
		t.Helper()
		code, data := postDecide(t, srv, request(k))
		if code != http.StatusOK {
			t.Fatalf("decide %d: HTTP %d: %s", k, code, data)
		}
		return data
	}
	rcfg := cfg
	rcfg.JournalDir = ""
	ref, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer crash(ref)
	refSrv := newTestServerFor(t, ref)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	const last = 5
	var want [][]byte // the uninterrupted answers
	for k := 0; k <= last+1; k++ {
		want = append(want, decide(refSrv, k))
		if k <= last {
			decide(srv, k)
		}
	}
	srv.Close()
	crash(c)

	path := journal.SegmentPath(ShardJournalDir(cfg.JournalDir, 0), 0)
	seg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journal.Record
	if err := journal.ScanSegment(path, func(r *journal.Record) error { recs = append(recs, r.Clone()); return nil }); err != nil {
		t.Fatal(err)
	}
	bounds := frameBounds(seg)
	at := bounds[len(bounds)-2] // the last commit
	ends := recordEnds(seg[at:])
	cut, arrives := -1, 0
	for i, r := range recs[len(recs)-len(ends):] {
		if r.Kind == journal.KindArrive {
			if arrives++; arrives == 2 {
				cut = at + ends[i]
				break
			}
		}
	}
	if cut < 0 || recs[len(recs)-len(ends)].ID != request(last).DecisionID {
		t.Fatalf("the last commit (%d records) is not request %d's", len(ends), last)
	}
	if err := os.WriteFile(path, seg[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	c, err = New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	srv = newTestServerFor(t, c)
	if got := decide(srv, last); !bytes.Equal(got, want[last]) {
		t.Fatalf("retry of the torn commit:\n got %s\nwant %s", got, want[last])
	}
	if got := decide(srv, last+1); !bytes.Equal(got, want[last+1]) {
		t.Fatalf("the request after it:\n got %s\nwant %s", got, want[last+1])
	}
	pre, err := c.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	crash(c)
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("journal continued past a torn commit: %v", err)
	}
	c, err = New(cfg)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer crash(c)
	if post, err := c.ShardStats(context.Background()); err != nil || !reflect.DeepEqual(post, pre) {
		t.Fatalf("second recovery diverged (%v):\n pre %+v\npost %+v", err, pre, post)
	}
}

// TestCommitLargerThanARecordCap: a commit is bounded by its segment, not
// by a per-record cap. A 20-task decide with cap-length labels commits a
// frame over 1 MiB; it is acknowledged, survives a crash and a restart,
// and the journal verifies.
func TestCommitLargerThanARecordCap(t *testing.T) {
	tr := testTrace(t, 40, 5)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := DecideRequest{DecisionID: "large", Tasks: make([]TaskSpec, 20)}
	for i, task := range tr.Tasks[:20] {
		label := fmt.Sprintf("%05d", i) + strings.Repeat("l", journal.MaxIDLen-5)
		req.Tasks[i] = TaskSpec{ID: label, Type: int(task.Type),
			Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
	}
	if _, err := c.Decide(context.Background(), &req); err != nil {
		t.Fatal(err)
	}
	if n := c.shards[0].jw.Bytes(); n <= 1<<20 {
		t.Fatalf("the commit wrote %d bytes, want over 1 MiB", n)
	}
	pre, err := c.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	crash(c)
	c, err = New(cfg)
	if err != nil {
		t.Fatalf("recovery over a commit past 1 MiB: %v", err)
	}
	defer crash(c)
	if post, err := c.ShardStats(context.Background()); err != nil || !reflect.DeepEqual(post, pre) {
		t.Fatalf("recovered stats diverged (%v):\n pre %+v\npost %+v", err, pre, post)
	}
	if post := decideRange(t, c, tr, 20, 40, 4); post[0].Seq != 20 {
		t.Fatalf("first post-recovery seq = %d, want 20", post[0].Seq)
	}
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestJournalRefusesOldRecordVersions: a log of an earlier record format —
// version 1 logged drain and membership records after their effects,
// version 2 wrote every integer fixed-width, version 3 framed and versioned
// each record — is refused at restart and by hcreplay -verify naming its
// version, not read under the present format. The frames are this build's
// with the version byte set back: the refusal comes before any record is
// read.
func TestJournalRefusesOldRecordVersions(t *testing.T) {
	for _, version := range []byte{1, 2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			cfg := Config{
				Profile: "video", Mapper: "PAM", Dropper: "heuristic",
				JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			decideRange(t, c, testTrace(t, 40, 3), 0, 40, 8)
			crash(c)
			path := journal.SegmentPath(ShardJournalDir(cfg.JournalDir, 0), 0)
			seg, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bounds := frameBounds(seg)
			for i := 0; i+1 < len(bounds); i++ {
				frame := seg[bounds[i]:bounds[i+1]]
				frame[8] = version // the payload's leading byte
				binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], crc32.MakeTable(crc32.Castagnoli)))
			}
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("record version %d", version)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("restart on a version-%d log: %v, want a refusal naming %s", version, err, want)
			}
			if _, err := VerifyAll(cfg.JournalDir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("verify of a version-%d log: %v, want a failure naming %s", version, err, want)
			}
		})
	}
}

// TestOverlongIDsRefusedAtAdmission: a task label or a decision ID past
// journal.MaxIDLen is answered 400 and logged nowhere, so the restart and
// hcreplay -verify read the log. While admission let a 70 000-byte label
// through, the decide was acknowledged and the restart failed with
// trailing bytes after the batch record.
func TestOverlongIDsRefusedAtAdmission(t *testing.T) {
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServerFor(t, c)
	tr := testTrace(t, 8, 3)
	long := strings.Repeat("x", 70000)
	for i, req := range []DecideRequest{
		{Tasks: []TaskSpec{{ID: long, Type: int(tr.Tasks[0].Type), Arrival: tr.Tasks[0].Arrival,
			Deadline: tr.Tasks[0].Deadline, ExecByType: tr.Tasks[0].ExecByType}}},
		{DecisionID: long, Tasks: []TaskSpec{{ID: "t0", Type: int(tr.Tasks[0].Type), Arrival: tr.Tasks[0].Arrival,
			Deadline: tr.Tasks[0].Deadline, ExecByType: tr.Tasks[0].ExecByType}}},
	} {
		if code, body := postDecide(t, srv, &req); code != http.StatusBadRequest || !strings.Contains(string(body), "cap 65536") {
			t.Fatalf("request %d with a 70000-byte id: HTTP %d %.120s, want 400 naming the cap", i, code, body)
		}
	}
	decideRange(t, c, tr, 0, 8, 4)
	crash(c)
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	crash(c2)
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestAggregateMetricsSurviveRecovery: the aggregate decision series are the
// shards' counters summed when scraped, so a restarted server reports on
// /metrics what the uninterrupted one did. While the controller counted
// client requests beside its shards, 20 requests split over 2 shards read
// 20 live and 40 — the shards' sub-batches — after recovery.
func TestAggregateMetricsSurviveRecovery(t *testing.T) {
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 60,
	}
	aggregate := func(c *Controller) []string {
		var out []string
		for _, line := range strings.Split(getText(t, newTestServerFor(t, c), "/metrics"), "\n") {
			for _, family := range []string{"taskdrop_decide_requests_total ", "taskdrop_decisions_total{", "taskdrop_drop_rate "} {
				if strings.HasPrefix(line, family) {
					out = append(out, line)
				}
			}
		}
		return out
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, testTrace(t, 160, 3), 0, 160, 8)
	live := aggregate(c)
	crash(c)
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer crash(c2)
	if got := aggregate(c2); len(live) != 5 || !reflect.DeepEqual(got, live) {
		t.Fatalf("aggregate series after recovery:\n%s\nlive:\n%s", strings.Join(got, "\n"), strings.Join(live, "\n"))
	}
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
	ok.Router = "p2c"
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
// decision and event matches the deterministic replay (what a tampered log
// does is TestVerifyDetectsTampering's). The drained log checkpoints only
// at the drain, so it keeps segment 0 and verifies from genesis; the
// crashed one is continued under a checkpoint cadence that trims it and
// verifies from its oldest retained checkpoint, every record on disk.
func TestVerifyShardCleanAndCrashed(t *testing.T) {
	tr := testTrace(t, 300, 11)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
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
	}
	if arrives != 200 {
		t.Errorf("verified %d arrives, want 200", arrives)
	}

	// Crashed journal: reopen, feed more, kill. Still verifies.
	cfg.SnapshotEvery = 50
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c2, tr, 200, 300, 8)
	crash(c2)
	stats, err = VerifyAll(cfg.JournalDir)
	if err != nil {
		t.Fatalf("crashed journal failed verification: %v", err)
	}
	for _, st := range stats {
		if segs, _ := journal.Segments(ShardJournalDir(cfg.JournalDir, st.Shard)); len(segs) == 0 || segs[0] == 0 {
			t.Errorf("shard %d: crashed log not trimmed (segments %v)", st.Shard, segs)
		}
		if want := logged(t, cfg.JournalDir, st.Shard, journal.KindArrive); st.Arrives != want {
			t.Errorf("shard %d: verified %d arrives, its log holds %d", st.Shard, st.Arrives, want)
		}
	}
}

// logged counts the records of one kind in the segments shard s's log holds
// on disk — what a verification walk must cover, trimmed or not.
func logged(t *testing.T, root string, s int, kind journal.Kind) int {
	t.Helper()
	dir := ShardJournalDir(root, s)
	segs, err := journal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		if err := journal.ScanSegment(journal.SegmentPath(dir, seg), func(r *journal.Record) error {
			if r.Kind == kind {
				n++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// rewriteSegment replaces segment seg of a shard log with edit's output
// over its records, re-framed by a real journal.Writer.
func rewriteSegment(t *testing.T, dir string, seg int, edit func([]journal.Record) []journal.Record) {
	t.Helper()
	var recs []journal.Record
	if err := journal.ScanSegment(journal.SegmentPath(dir, seg), func(r *journal.Record) error {
		recs = append(recs, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	w, err := journal.OpenWriter(tmp, journal.WriterOptions{Policy: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range edit(recs) {
		if err := w.Append(&r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(journal.SegmentPath(tmp, 0), journal.SegmentPath(dir, seg)); err != nil {
		t.Fatal(err)
	}
}

// rewriteSnapshot replaces snapshot seg of a shard log with its edited
// checkpoint, re-encoded.
func rewriteSnapshot(t *testing.T, dir string, seg int, edit func(*ShardCheckpoint)) {
	t.Helper()
	payload, err := journal.ReadSnapshotFile(journal.SnapshotPath(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	edit(cp)
	writeSnapshot(t, dir, seg, appendCheckpoint(nil, cp))
}

// writeSnapshot replaces snapshot seg of a shard log with payload, framed
// (length + CRC) by a real journal.Writer.
func writeSnapshot(t *testing.T, dir string, seg int, payload []byte) {
	t.Helper()
	tmp := t.TempDir()
	w, err := journal.OpenWriter(tmp, journal.WriterOptions{Policy: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(journal.SnapshotPath(tmp, 0), journal.SnapshotPath(dir, seg)); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDetectsTampering pins what stays independent now that replay
// runs the live path's code: the comparison of the bytes on disk against a
// re-derivation. One edit to a copied 2-shard journal with checkpoints — a
// derived record or an input record of the oldest retained segment, the last
// derived record of the newest, the newest snapshot, a forged record at the
// end — must fail verification and name the record or snapshot; the
// untouched copy passes. The checkpoints
// trimmed everything behind the newest one but one, so what the log retains
// is recovery's tail: New refuses every edit as verification does, and
// resumes the untouched copy where the live controller stood.
func TestVerifyDetectsTampering(t *testing.T) {
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
	// The rows copy the journal as it stood here, every ack committed, so
	// the untouched copy must recover to exactly these stats.
	pre, err := c.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	live := t.TempDir()
	if err := os.CopyFS(live, os.DirFS(cfg.JournalDir)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	segs, err := journal.Segments(ShardJournalDir(live, 0))
	if err != nil || len(segs) == 0 || segs[0] == 0 {
		t.Fatalf("shard 0's log was not trimmed: segments %v (%v)", segs, err)
	}
	snaps, err := journal.Snapshots(ShardJournalDir(live, 0))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("shard 0 retains snapshots %v (%v), want two", snaps, err)
	}
	oldest, newest := segs[0], snaps[1]
	newestName := fmt.Sprintf("snapshot %d", newest)

	// firstOf returns the index of the first record of the oldest retained
	// segment that satisfies pick, past its first few records (interior).
	firstOf := func(t *testing.T, recs []journal.Record, pick func(*journal.Record) bool) int {
		t.Helper()
		for i := 5; i < len(recs)-5; i++ {
			if pick(&recs[i]) {
				return i
			}
		}
		t.Fatalf("segment %d holds no such record", oldest)
		return -1
	}
	isMap := func(r *journal.Record) bool { return r.Kind == journal.KindDecision && r.Action == journal.ActMap }
	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, shardDir string)
		want   string // "" = must verify
		refuse string // "" = New must recover the copy (see above)
	}{
		{"untouched", func(*testing.T, string) {}, "", ""},
		{"decision machine changed", func(t *testing.T, dir string) {
			rewriteSegment(t, dir, oldest, func(recs []journal.Record) []journal.Record {
				recs[firstOf(t, recs, isMap)].Machine++
				return recs
			})
		}, "record ", "record "},
		{"terminal event removed", func(t *testing.T, dir string) {
			rewriteSegment(t, dir, oldest, func(recs []journal.Record) []journal.Record {
				i := firstOf(t, recs, func(r *journal.Record) bool { return r.Kind == journal.KindEvent })
				return append(recs[:i], recs[i+1:]...)
			})
		}, "record ", "record "},
		{"arrive deadline changed", func(t *testing.T, dir string) {
			rewriteSegment(t, dir, oldest, func(recs []journal.Record) []journal.Record {
				// A mapped task whose deadline had passed on arrival is
				// dropped reactively instead: the arrive precedes its decision.
				i := firstOf(t, recs, isMap)
				for recs[i].Kind != journal.KindArrive {
					i--
				}
				recs[i].Deadline = recs[i].Tick - 1
				return recs
			})
		}, "record ", "record "},
		{"last derived record removed", func(t *testing.T, dir string) {
			// What a crash inside the last commit could leave while records
			// had frames of their own; commits are whole now, so it is a defect.
			rewriteSegment(t, dir, segs[len(segs)-1], func(recs []journal.Record) []journal.Record {
				if isInput(recs[len(recs)-1].Kind) {
					t.Fatalf("segment %d ends in %s, want a derived record", segs[len(segs)-1], recs[len(recs)-1].String())
				}
				return recs[:len(recs)-1]
			})
		}, "the log ends without 1 records", "the log ends without 1 records"},
		{"checkpoint counter changed", func(t *testing.T, dir string) {
			rewriteSnapshot(t, dir, newest, func(cp *ShardCheckpoint) { cp.Mapped++ })
		}, newestName, newestName},
		{"checkpoint live task changed", func(t *testing.T, dir string) {
			rewriteSnapshot(t, dir, newest, func(cp *ShardCheckpoint) {
				for _, m := range cp.Engine.Machines {
					if len(m.Queue) > 0 {
						m.Queue[len(m.Queue)-1].Deadline++
						return
					}
				}
				t.Fatalf("snapshot %d holds no queued task", newest)
			})
		}, newestName, newestName},
		{"forged trailing decision", func(t *testing.T, dir string) {
			// The replay cannot derive a record nothing in the log leads to.
			w, err := journal.OpenWriter(dir, journal.WriterOptions{Policy: journal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(&journal.Record{Kind: journal.KindDecision, Seq: 999999, Action: journal.ActMap, Machine: 2, Tick: 1}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}, "logged records beyond", "logged records beyond"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.CopyFS(root, os.DirFS(live)); err != nil {
				t.Fatal(err)
			}
			tc.tamper(t, ShardJournalDir(root, 0))
			_, err := VerifyShard(root, 0)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("untouched copy failed verification: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("tampered journal passed verification")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("verification failed without naming the %s: %v", strings.TrimSpace(tc.want), err)
			}
			// The tampering is confined to shard 0: its sibling still verifies.
			if _, err := VerifyShard(root, 1); err != nil {
				t.Fatalf("shard 1: %v", err)
			}
			rcfg := cfg
			rcfg.JournalDir = root
			c2, err := New(rcfg)
			if tc.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("New over a tail that does not re-derive: %v, want an error containing %q", err, tc.refuse)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer crash(c2)
			if tc.want == "" {
				if post, err := c2.ShardStats(context.Background()); err != nil || !reflect.DeepEqual(post, pre) {
					t.Fatalf("recovered shard stats diverged (%v):\n pre %+v\npost %+v", err, pre, post)
				}
			}
		})
	}
}

// TestCheckpointCostIsFlat: a checkpoint holds what the shard has queued,
// not what it has ever admitted, and each one deletes the history behind the
// checkpoint before it, so after 12 000 tasks neither the newest checkpoint
// nor the shard's log directory is bigger than after 2 400 (allowing 2x for
// queue depth, digit widths and where in a segment the run stops). When the
// engine snapshot listed every task fed, each checkpoint grew by some 135 B
// per task admitted since the one before; while no segment was ever
// deleted, the directory grew by some 155 B per task.
func TestCheckpointCostIsFlat(t *testing.T) {
	tr := testTrace(t, 12000, 31)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", BoundaryExclusion: 100,
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 400,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := ShardJournalDir(cfg.JournalDir, 0)
	jw := c.shards[0].jw
	// sizes returns the newest checkpoint's size and the directory's, which
	// the writer's disk gauge must match once every ack is flushed.
	sizes := func() (newest, total int64) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
			if strings.HasSuffix(e.Name(), ".snap") {
				newest = fi.Size() // ReadDir sorts by name: the last is the newest
			}
		}
		if got := jw.DiskBytes(); got != total {
			t.Fatalf("taskdrop_journal_disk_bytes reads %d B, the directory holds %d B", got, total)
		}
		return newest, total
	}
	decideRange(t, c, tr, 0, 2400, 16)
	snapEarly, dirEarly := sizes()
	decideRange(t, c, tr, 2400, len(tr.Tasks), 16)
	crash(c) // no drain: the last checkpoint is one the cadence wrote under load
	snapLate, dirLate := sizes()
	if n := jw.Checkpoints(); n < 10 {
		t.Fatalf("%d checkpoints, want at least 10", n)
	}
	if snapLate > 2*snapEarly {
		t.Fatalf("checkpoint after 12 000 tasks is %d B, after 2 400 it was %d B", snapLate, snapEarly)
	}
	if dirLate > 2*dirEarly {
		t.Fatalf("log directory after 12 000 tasks is %d B, after 2 400 it was %d B", dirLate, dirEarly)
	}
	if snaps, err := journal.Snapshots(dir); err != nil || len(snaps) != 2 {
		t.Fatalf("the log retains snapshots %v (%v), want two", snaps, err)
	}
	t.Logf("checkpoint %d -> %d B, directory %d -> %d B, %d checkpoints", snapEarly, snapLate, dirEarly, dirLate, jw.Checkpoints())
}

// TestRecoveryOverCorruptCheckpoint: a trimmed log keeps two checkpoints.
// With the newest unreadable, recovery bases on the older one — its tail
// is still a whole segment — and with the older unreadable, on the newest;
// either way the restarted controller reports the uninterrupted run's
// /v1/stats, goes on deciding as it does and leaves a log that verifies.
// With both unreadable nothing stands for the deleted history: New refuses,
// naming the missing segment, instead of replaying the tail onto an empty
// shard.
func TestRecoveryOverCorruptCheckpoint(t *testing.T) {
	tr := testTrace(t, 300, 7)
	cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Fsync: "never", SnapshotEvery: 60}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := decideRange(t, ref, tr, 0, len(tr.Tasks), 4)
	const cut = 200
	cfg.JournalDir = t.TempDir()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, cut, 4)
	pre, err := c.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	crash(c)
	dir := ShardJournalDir(cfg.JournalDir, 0)
	snaps, err := journal.Snapshots(dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("the log retains snapshots %v (%v), want two", snaps, err)
	}
	for _, tc := range []struct {
		name    string
		corrupt []int // the retained snapshots made unreadable
	}{
		{"newest", snaps[1:]},
		{"older", snaps[:1]},
		{"both", snaps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := cfg
			cc.JournalDir = t.TempDir()
			if err := os.CopyFS(cc.JournalDir, os.DirFS(cfg.JournalDir)); err != nil {
				t.Fatal(err)
			}
			for _, seg := range tc.corrupt {
				if err := os.WriteFile(journal.SnapshotPath(ShardJournalDir(cc.JournalDir, 0), seg), []byte("garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			c2, err := New(cc)
			if len(tc.corrupt) == len(snaps) {
				if err == nil || !strings.Contains(err.Error(), "segment 0 is missing") {
					t.Fatalf("New over a trimmed log with no readable checkpoint: %v, want a refusal naming segment 0", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("recovery past a corrupt checkpoint: %v", err)
			}
			if post, err := c2.ShardStats(context.Background()); err != nil || !reflect.DeepEqual(post, pre) {
				t.Fatalf("recovered /v1/stats diverged (%v):\n pre %+v\npost %+v", err, pre, post)
			}
			if got := decideRange(t, c2, tr, cut, len(tr.Tasks), 4); !reflect.DeepEqual(got, want[cut:]) {
				t.Fatal("recovered controller diverged from the uninterrupted one")
			}
			crash(c2)
			if _, err := VerifyAll(cc.JournalDir); err != nil {
				t.Fatalf("journal continued past a corrupt checkpoint: %v", err)
			}
		})
	}
}

// TestRecoveryRefusesOldCheckpointFormat: a journal whose newest checkpoint
// holds an engine snapshot of another format version is refused at restart
// with the version named — not misread, and not replayed from genesis
// behind the operator's back. The unversioned pre-tally format reads as
// version 0.
func TestRecoveryRefusesOldCheckpointFormat(t *testing.T) {
	tr := testTrace(t, 120, 7)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 50,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, len(tr.Tasks), 4)
	crash(c)
	dir := ShardJournalDir(cfg.JournalDir, 0)
	snaps, err := journal.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoint to age (%v)", err)
	}
	rewriteSnapshot(t, dir, snaps[len(snaps)-1], func(cp *ShardCheckpoint) { cp.Engine.Version = 0 })
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "format version 0") {
		t.Fatalf("restart on an old-format checkpoint: %v, want a refusal naming format version 0", err)
	}
	if _, err := VerifyShard(cfg.JournalDir, 0); err == nil || !strings.Contains(err.Error(), "format version 0") {
		t.Fatalf("verify over an old-format checkpoint: %v, want a failure naming format version 0", err)
	}
}

// TestRecoveryRefusesJSONCheckpoint: a journal whose newest checkpoint is
// the JSON builds before the binary codec wrote is refused at restart and
// by verification, naming JSON — not misread as binary.
func TestRecoveryRefusesJSONCheckpoint(t *testing.T) {
	tr := testTrace(t, 120, 7)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 50,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, tr, 0, len(tr.Tasks), 4)
	crash(c)
	dir := ShardJournalDir(cfg.JournalDir, 0)
	snaps, err := journal.Snapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoint to age (%v)", err)
	}
	newest := snaps[len(snaps)-1]
	payload, err := journal.ReadSnapshotFile(journal.SnapshotPath(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	cp.Engine.Version = 2 // the last JSON format
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, dir, newest, blob)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("restart on a JSON checkpoint: %v, want a refusal naming JSON", err)
	}
	if _, err := VerifyShard(cfg.JournalDir, 0); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("verify over a JSON checkpoint: %v, want a failure naming JSON", err)
	}
}

// TestJournalFailureStopsAdmission pins fail-stop: once a shard's log has
// lost a write the request that hit it fails with 503, later requests are
// refused before they touch the engine, /readyz turns 503, and a restart
// recovers the last committed state into a journal that verifies.
func TestJournalFailureStopsAdmission(t *testing.T) {
	tr := testTrace(t, 60, 23)
	cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", JournalDir: t.TempDir(), Fsync: "never"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServerFor(t, c)
	decideRange(t, c, tr, 0, 40, 8)
	arrived := func(c *Controller) int {
		snap, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return snap.Live.Arrived
	}
	committed := arrived(c)

	// Kill the log behind the controller's back: every later flush fails.
	sh := c.shards[0]
	if err := sh.do(context.Background(), func() { _ = sh.jw.Close() }); err != nil {
		t.Fatal(err)
	}
	var after []int
	for i := 40; i < 43; i++ {
		task := tr.Tasks[i]
		code, body := postDecide(t, srv, &DecideRequest{Tasks: []TaskSpec{{
			Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType,
		}}})
		if code != http.StatusServiceUnavailable {
			t.Fatalf("decide %d over a failed journal = %d %s, want 503", i-40, code, body)
		}
		after = append(after, arrived(c))
	}
	// The first request fed the engine and failed at its commit; the next
	// two were refused on entry.
	if after[0] != committed+1 || after[1] != after[0] || after[2] != after[0] {
		t.Fatalf("arrived %d before the failure, then %v: later requests still reach the engine", committed, after)
	}
	if _, err := c.Admin(context.Background(), &AdminMachineRequest{Op: "add", Type: 0}); !errors.Is(err, ErrJournalFailed) {
		t.Fatalf("admin over a failed journal: %v, want ErrJournalFailed", err)
	}
	resp, err := srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready || ready.Status != "journal-failed" {
		t.Fatalf("/readyz = %d %+v, want 503 journal-failed", resp.StatusCode, ready)
	}
	crash(c)

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery after journal failure: %v", err)
	}
	if got := arrived(c2); got != committed {
		t.Fatalf("recovered %d arrivals, want the %d committed before the failure", got, committed)
	}
	crash(c2)
	if _, err := VerifyAll(cfg.JournalDir); err != nil {
		t.Fatalf("journal after failure and recovery: %v", err)
	}
}

// TestAuditNamesAddedMachine: the audit replays membership through the
// live shard's applyMembership, so a task mapped to a runtime-added machine
// is explained under the index the directory gave it — not a sentinel.
func TestAuditNamesAddedMachine(t *testing.T) {
	tr := testTrace(t, 200, 29)
	cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", JournalDir: t.TempDir(), Fsync: "never"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	added := admin(t, c, AdminMachineRequest{Op: "add", Type: 0})
	if added.Machine != len(c.matrix.Machines()) || added.MachineName != "added-0#0" {
		t.Fatalf("added machine = %d %q", added.Machine, added.MachineName)
	}
	seq := -1
	for _, d := range decideRange(t, c, tr, 0, len(tr.Tasks), 4) {
		if d.Machine == added.Machine {
			seq = d.Seq
			break
		}
	}
	if seq < 0 {
		t.Fatal("no task mapped to the added machine")
	}
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := AuditDecision(&buf, cfg.JournalDir, 0, int64(seq), false); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("replayed decision: map -> machine %d %q", added.Machine, added.MachineName)
	if out := buf.String(); !strings.Contains(out, want) || strings.Contains(out, "machine -1") {
		t.Errorf("audit output wants %q and no \"machine -1\":\n%s", want, out)
	}
}

// TestVerifyWarmJournalColdReplay is the end-to-end transparency proof
// for the persistent chain caches: the live server records its journal
// with caches warm, and the same log must verify both against a warm
// replay (caches on, hcreplay's default) and against a cold replay
// (ColdChains — every cache invalidated at each event). If signature-gated
// reuse ever changed a single decision, the cold pass would diverge from
// the warm recording on that record. The server checkpoints only at the
// drain, so nothing is trimmed and both passes re-derive the recording from
// genesis.
func TestVerifyWarmJournalColdReplay(t *testing.T) {
	tr := testTrace(t, 260, 17)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1,
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
		sh, err := openReplay(cfg.JournalDir, s, true)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sh.replayLog(cfg.JournalDir, false, nil)
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

// TestReplayIgnoresManifestRouter: replay never routes — each shard's log is
// already routed — so a journal stays verifiable and auditable when the
// policy its manifest names no longer resolves.
func TestReplayIgnoresManifestRouter(t *testing.T) {
	tr := testTrace(t, 120, 17)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "p2c",
		JournalDir: t.TempDir(), Fsync: "never",
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decisions := decideRange(t, c, tr, 0, len(tr.Tasks), 4)
	crash(c)

	// A manifest written while Manifest recorded the router carries the key.
	path := filepath.Join(cfg.JournalDir, manifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	man["router"] = "retired-policy"
	if blob, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart on a manifest with a router key: %v", err)
	}
	crash(c2)

	stats, err := VerifyAll(cfg.JournalDir)
	if err != nil {
		t.Fatalf("journal under an unknown manifest router failed verification: %v", err)
	}
	if len(stats) != 2 || stats[0].Arrives+stats[1].Arrives != len(tr.Tasks) {
		t.Fatalf("verified %d shards, want 2 covering %d arrives: %+v", len(stats), len(tr.Tasks), stats)
	}
	for _, d := range decisions {
		if d.Shard != 1 {
			continue
		}
		var buf strings.Builder
		if err := AuditDecision(&buf, cfg.JournalDir, 1, int64(d.Seq), false); err != nil {
			t.Fatalf("audit of shard 1 seq %d: %v", d.Seq, err)
		}
		if want := fmt.Sprintf("replayed decision: %s", d.Action); !strings.Contains(buf.String(), want) {
			t.Fatalf("audit output missing %q:\n%s", want, buf.String())
		}
		return
	}
	t.Fatal("p2c routed nothing to shard 1")
}

// TestManifestUnderDeletedMapperRefused: unlike the router, the mapper
// decides what a log's tail replays to, so a journal whose manifest names
// a mapper the registry no longer has can be neither restarted nor
// verified, and both refusals name the mapper.
func TestManifestUnderDeletedMapperRefused(t *testing.T) {
	requireManifestRefused(t, `"mapper": "PAM"`, `"mapper": "Random"`, func(c *Config) { c.Mapper = "Random" }, `"Random"`)
}

// TestManifestUnderDeletedDropperParamRefused: approx once took a grace of
// its own; it now reads the engine's, so a journal whose manifest pins
// approx:grace=N is refused the same way, naming the parameter.
func TestManifestUnderDeletedDropperParamRefused(t *testing.T) {
	requireManifestRefused(t, `"dropper": "heuristic"`, `"dropper": "approx:grace=200"`, func(c *Config) { c.Dropper = "approx:grace=200" }, "grace")
}

// requireManifestRefused serves a short journal, rewrites its manifest
// from old to new (and the config by edit, as an operator restarting under
// the manifest's settings would), then requires both a restart and
// VerifyAll to refuse it with an error that contains name.
func requireManifestRefused(t *testing.T, old, new string, edit func(*Config), name string) {
	t.Helper()
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		JournalDir: t.TempDir(), Fsync: "never",
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, testTrace(t, 40, 3), 0, 40, 4)
	crash(c)

	path := filepath.Join(cfg.JournalDir, manifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte(old)) {
		t.Fatalf("manifest has no %s to rewrite: %s", old, blob)
	}
	blob = bytes.Replace(blob, []byte(old), []byte(new), 1)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	edit(&cfg)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("restart under %s: %v, want a refusal naming %s", new, err, name)
	}
	if _, err := VerifyAll(cfg.JournalDir); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("verify under %s: %v, want a refusal naming %s", new, err, name)
	}
}
