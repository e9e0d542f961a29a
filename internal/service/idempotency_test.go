package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// postDecide POSTs one decide request and returns the raw response bytes.
func postDecide(t testing.TB, srv *testServer, req *DecideRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestHTTPIdempotentDecisionIDs is the PR's acceptance criterion at the
// single-server level: a repeated decide request with the same DecisionID
// must return the byte-identical original response and must not advance
// the engine.
func TestHTTPIdempotentDecisionIDs(t *testing.T) {
	tr := testTrace(t, 64, 11)
	_, srv := newTestServer(t)

	var responses [][]byte
	for lo := 0; lo < 32; lo += 8 {
		req := DecideRequest{DecisionID: fmt.Sprintf("idem-%d", lo/8), Tasks: make([]TaskSpec, 8)}
		for i, task := range tr.Tasks[lo : lo+8] {
			req.Tasks[i] = TaskSpec{ID: fmt.Sprintf("t%d", task.ID), Type: int(task.Type),
				Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
		}
		code, first := postDecide(t, srv, &req)
		if code != http.StatusOK {
			t.Fatalf("decide %d: HTTP %d: %s", lo/8, code, first)
		}
		responses = append(responses, first)

		// Retry the identical request twice: byte-identical both times.
		for retry := 0; retry < 2; retry++ {
			code, again := postDecide(t, srv, &req)
			if code != http.StatusOK {
				t.Fatalf("duplicate decide %d retry %d: HTTP %d: %s", lo/8, retry, code, again)
			}
			if !bytes.Equal(again, first) {
				t.Fatalf("duplicate decide %d retry %d not byte-identical:\nfirst %s\nretry %s", lo/8, retry, first, again)
			}
		}
	}

	// A duplicate with a different task count is a protocol violation.
	bad := DecideRequest{DecisionID: "idem-0", Tasks: make([]TaskSpec, 3)}
	for i, task := range tr.Tasks[:3] {
		bad.Tasks[i] = TaskSpec{Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
	}
	if code, body := postDecide(t, srv, &bad); code != http.StatusConflict {
		t.Fatalf("count-mismatched duplicate: HTTP %d (want 409): %s", code, body)
	}

	// The duplicates must not have advanced the engine: the next fresh
	// batch continues the sequence exactly where the originals left it.
	req := DecideRequest{Tasks: make([]TaskSpec, 1)}
	task := tr.Tasks[32]
	req.Tasks[0] = TaskSpec{Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
	code, data := postDecide(t, srv, &req)
	if code != http.StatusOK {
		t.Fatalf("follow-up decide: HTTP %d", code)
	}
	var out DecideResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Decisions[0].Seq != 32 {
		t.Fatalf("follow-up seq = %d, want 32 — duplicates advanced the engine", out.Decisions[0].Seq)
	}

	// The window is not a setting: a controller built from the zero Config
	// serves the same protocol.
	zc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer zc.Close()
	zsrv := newTestServerFor(t, zc)
	zreq := DecideRequest{DecisionID: "again", Tasks: []TaskSpec{{Type: 0, Arrival: 1, Deadline: 90000}}}
	_, first := postDecide(t, zsrv, &zreq)
	_, again := postDecide(t, zsrv, &zreq)
	if !bytes.Equal(first, again) || !strings.Contains(getText(t, zsrv, "/metrics"), "\ntaskdrop_dedup_hits_total 1\n") {
		t.Fatalf("zero Config: repeated decision ID answered %s then %s, want identical bytes and one dedup hit", first, again)
	}
}

// TestPartialCommitPoisonsDecisionID: a batch that one shard committed and
// another refused took effect in part, so its decision ID is spent — a
// same-ID retry is refused with 409 instead of feeding the committed
// shard's tasks a second time.
func TestPartialCommitPoisonsDecisionID(t *testing.T) {
	c := newShardedController(t, 2, "rr")
	defer c.Close()
	srv := newTestServerFor(t, c)
	for g := range c.matrix.Machines() {
		if s, _, _ := c.cl.Locate(g); s == 1 {
			admin(t, c, AdminMachineRequest{Op: "remove", Machine: g})
		}
	}
	// The removals landing between routing and shard 1's turn: rr still
	// sends the batch's second task to shard 1.
	c.shards[1].view.SetDown(false)

	tr := testTrace(t, 8, 3)
	req := DecideRequest{DecisionID: "partial", Tasks: make([]TaskSpec, 2)}
	for i, task := range tr.Tasks[:2] {
		req.Tasks[i] = TaskSpec{Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
	}
	if code, body := postDecide(t, srv, &req); code != http.StatusTooManyRequests {
		t.Fatalf("batch over a degraded shard: HTTP %d (want 429): %s", code, body)
	}
	fed := c.shards[0].metrics.requests.Load()
	if fed != 1 {
		t.Fatalf("shard 0 fed %d sub-batches, want 1 (vacuous: nothing committed)", fed)
	}
	if code, body := postDecide(t, srv, &req); code != http.StatusConflict {
		t.Fatalf("same-ID retry of a partly committed batch: HTTP %d (want 409): %s", code, body)
	}
	if got := c.shards[0].metrics.requests.Load(); got != fed {
		t.Fatalf("the retry fed shard 0 again: %d sub-batches, want %d", got, fed)
	}
}

// TestFanOutPartialCommitRule pins the one fan-out both tiers decide
// through: only non-empty groups run, the latest clock wins, the first
// error goes by group order, and it is marked a partial commit exactly
// when another group committed.
func TestFanOutPartialCommitRule(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	run := func(groups [][]int, errs map[int]error) (pmf.Tick, []int, error) {
		var mu sync.Mutex
		var ran []int
		now, err := FanOut(groups, func(g int) (pmf.Tick, error) {
			mu.Lock()
			ran = append(ran, g)
			mu.Unlock()
			return pmf.Tick(10 * (g + 1)), errs[g]
		})
		slices.Sort(ran)
		return now, ran, err
	}

	now, ran, err := run([][]int{{0}, nil, {1}, {2}, nil}, nil)
	if err != nil || now != 40 || !slices.Equal(ran, []int{0, 2, 3}) {
		t.Fatalf("all commit: now %d, ran %v, err %v; want 40, [0 2 3], nil", now, ran, err)
	}
	if now, ran, err := run([][]int{nil, nil}, nil); err != nil || now != 0 || len(ran) != 0 {
		t.Fatalf("no groups: now %d, ran %v, err %v", now, ran, err)
	}
	// Nothing committed: the first error by group order, unmarked.
	if _, _, err := run([][]int{{0}, nil, {1}}, map[int]error{0: errA, 2: errB}); !errors.Is(err, errA) || errors.Is(err, errPartialCommit) {
		t.Fatalf("nothing committed: err %v, want the plain first error %v", err, errA)
	}
	// Group 0 committed: group 1's error, marked; group 2's is not the one.
	_, _, err = run([][]int{{0}, {1}, {2}}, map[int]error{1: errB, 2: errA})
	if !errors.Is(err, errB) || errors.Is(err, errA) || !errors.Is(err, errPartialCommit) {
		t.Fatalf("something committed: err %v, want %v marked as a partial commit", err, errB)
	}
}

// TestJournalReseedsDedupAfterCrash proves idempotency survives a process
// crash: decision IDs acknowledged before a kill -9 are re-seeded from the
// journal on recovery, and a post-restart retry returns the byte-identical
// pre-crash response — also at a checkpoint cadence on which commits land
// (every 20 records), where the log behind the newest checkpoint is empty
// and the window has to come from the segment before it.
func TestJournalReseedsDedupAfterCrash(t *testing.T) {
	for _, every := range []int{-1, 20} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) { reseedsDedupAfterCrash(t, every) })
	}
}

func reseedsDedupAfterCrash(t *testing.T, every int) {
	tr := testTrace(t, 80, 13)
	cfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: every,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := serveLoopback(t, NewHandler(c1))

	originals := map[string][]byte{}
	for lo := 0; lo < 40; lo += 10 {
		id := fmt.Sprintf("crash-idem-%d", lo/10)
		req := DecideRequest{DecisionID: id, Tasks: make([]TaskSpec, 10)}
		for i, task := range tr.Tasks[lo : lo+10] {
			req.Tasks[i] = TaskSpec{ID: fmt.Sprintf("t%d", task.ID), Type: int(task.Type),
				Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
		}
		code, data := postDecide(t, srv1, &req)
		if code != http.StatusOK {
			t.Fatalf("decide %s: HTTP %d: %s", id, code, data)
		}
		originals[id] = data
	}
	srv1.Close()
	crash(c1)

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	srv2 := serveLoopback(t, NewHandler(c2))
	defer srv2.Close()

	// Without checkpoints the window is the whole log; with them it reaches
	// back one segment at least, which at this cadence is a request or two:
	// what is promised is the retry of the last acknowledged request.
	retryFrom := 0
	if every > 0 {
		retryFrom = 30
	}
	for lo := retryFrom; lo < 40; lo += 10 {
		id := fmt.Sprintf("crash-idem-%d", lo/10)
		req := DecideRequest{DecisionID: id, Tasks: make([]TaskSpec, 10)}
		for i, task := range tr.Tasks[lo : lo+10] {
			req.Tasks[i] = TaskSpec{ID: fmt.Sprintf("t%d", task.ID), Type: int(task.Type),
				Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
		}
		code, data := postDecide(t, srv2, &req)
		if code != http.StatusOK {
			t.Fatalf("post-crash retry %s: HTTP %d: %s", id, code, data)
		}
		if !bytes.Equal(data, originals[id]) {
			t.Fatalf("post-crash retry %s not byte-identical:\n pre %s\npost %s", id, originals[id], data)
		}
	}

	// Fresh work continues normally after the reseeded window.
	tail := decideRange(t, c2, tr, 40, len(tr.Tasks), 8)
	if tail[0].Seq != 40 {
		t.Fatalf("post-recovery seq = %d, want 40", tail[0].Seq)
	}
}

// TestPartitionedControllersCoverMatrix builds two controllers over the
// halves of the video matrix and checks the ownership arithmetic the
// multi-process deployment relies on: every machine owned once, and a
// machine added to each backend at runtime numbered apart from the other's.
func TestPartitionedControllersCoverMatrix(t *testing.T) {
	var owned int
	var total int
	var added [2]int
	for k := 0; k < 2; k++ {
		c, err := New(Config{
			Profile: "video", Mapper: "PAM", Dropper: "heuristic",
			Partition: fmt.Sprintf("%d/2", k), Shards: 2, Router: "rr",
		})
		if err != nil {
			t.Fatal(err)
		}
		total = len(c.Matrix().Machines())
		if c.NumMachines() >= total {
			t.Fatalf("partition %d/2 owns the whole matrix (%d machines)", k, c.NumMachines())
		}
		owned += c.NumMachines()
		added[k] = admin(t, c, AdminMachineRequest{Op: "add", Type: 0}).Machine
	}
	if owned != total {
		t.Fatalf("partitions own %d machines, matrix has %d", owned, total)
	}
	if added[0] != total || added[1] != total+1 {
		t.Fatalf("first adds on partitions 0/2 and 1/2 are machines %v, want %d and %d", added, total, total+1)
	}

	for _, bad := range []string{"2/2", "-1/2", "0/0", "x/2", "0/", "1"} {
		if _, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Partition: bad}); err == nil {
			t.Errorf("partition %q accepted", bad)
		}
	}
}
