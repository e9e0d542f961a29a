package service

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// testTrace generates a small oversubscribed trace on the (cached) video
// system — every decision path shows up within a few hundred tasks.
func testTrace(t testing.TB, tasks int, seed int64) *workload.Trace {
	t.Helper()
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack}
	return workload.Generate(m, cfg.Scaled(float64(tasks)/30000), seed)
}

func newTestController(t testing.TB) *Controller {
	t.Helper()
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func decideAll(t testing.TB, c *Controller, tr *workload.Trace, batch int) []Decision {
	t.Helper()
	var out []Decision
	for lo := 0; lo < len(tr.Tasks); lo += batch {
		hi := min(lo+batch, len(tr.Tasks))
		req := DecideRequest{Tasks: make([]TaskSpec, hi-lo)}
		for i, task := range tr.Tasks[lo:hi] {
			req.Tasks[i] = TaskSpec{
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

// TestControllerMatchesOfflineSimulation is the closing of the loop: the
// online controller fed a trace must land on exactly the Result the
// offline simulator computes for the same (profile, mapper, dropper,
// trace) — robustness, drop counts, cost, makespan, everything.
func TestControllerMatchesOfflineSimulation(t *testing.T) {
	tr := testTrace(t, 500, 3)
	c := newTestController(t)
	decisions := decideAll(t, c, tr, 16)
	if len(decisions) != tr.Len() {
		t.Fatalf("got %d decisions, want %d", len(decisions), tr.Len())
	}
	got, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m, _ := pet.CachedMatrix("video")
	mapper, err := mapping.FromSpec("PAM")
	if err != nil {
		t.Fatal(err)
	}
	dropper, err := core.PolicyFromSpec("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	offline := sim.New(m, tr, mapper, dropper, sim.Config{QueueCap: 6})
	want := offline.Run()

	if *got != *want {
		t.Fatalf("online Result = %+v\nwant (offline)   %+v", got, want)
	}
	// Decision-mix consistency: a trace task's deadline always lies beyond
	// its arrival, so admission-time drops cannot occur here — the
	// oversubscribed trace must instead produce both mapped and deferred
	// decisions, and later in-queue drops must appear in the drain result.
	var mapped, deferred, dropped int
	for _, d := range decisions {
		switch d.Action {
		case ActionMap:
			mapped++
			if d.Machine < 0 || d.Machine >= len(m.Machines()) || d.MachineName == "" {
				t.Fatalf("mapped decision without machine: %+v", d)
			}
		case ActionDefer:
			deferred++
		case ActionDrop:
			dropped++
		}
	}
	if dropped > got.DroppedReactive {
		t.Fatalf("admission drops %d exceed total reactive drops %d", dropped, got.DroppedReactive)
	}
	if mapped == 0 || deferred == 0 {
		t.Fatalf("decision mix too degenerate to be a real test: mapped=%d deferred=%d", mapped, deferred)
	}
	if got.DroppedReactive+got.DroppedProactive == 0 {
		t.Fatal("oversubscribed trace produced no drops; test workload too easy")
	}
}

// TestControllerDeterminism: two controllers fed the identical request
// sequence produce the identical decision sequence and final Result.
func TestControllerDeterminism(t *testing.T) {
	tr := testTrace(t, 400, 9)
	a, b := newTestController(t), newTestController(t)
	da := decideAll(t, a, tr, 8)
	db := decideAll(t, b, tr, 8)
	if !reflect.DeepEqual(da, db) {
		t.Fatal("decision sequences diverged for identical (spec, trace, seed)")
	}
	ra, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *ra != *rb {
		t.Fatalf("drain results diverged: %+v vs %+v", ra, rb)
	}
}

// TestDrainRejectsNewWork: after Drain starts, Decide and Stats fail with
// ErrDraining, repeated Drain returns the same result, and the final
// result is retained.
func TestDrainRejectsNewWork(t *testing.T) {
	tr := testTrace(t, 50, 1)
	c := newTestController(t)
	decideAll(t, c, tr, 10)
	res1, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(context.Background(), &DecideRequest{Tasks: []TaskSpec{{Arrival: 1, Deadline: 2}}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Decide after drain: err = %v, want ErrDraining", err)
	}
	if _, err := c.Stats(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Stats after drain: err = %v, want ErrDraining", err)
	}
	res2, err := c.Drain(context.Background())
	if err != nil || res1 != res2 {
		t.Fatalf("second drain = (%p, %v), want same result pointer", res2, err)
	}
	if final, ok := c.FinalResult(); !ok || final != res1 {
		t.Fatal("FinalResult not retained")
	}
	if err := res1.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerConcurrentClients drives the controller from many
// goroutines at once — decisions interleave nondeterministically, but
// totals must conserve and nothing may race (run under -race).
func TestControllerConcurrentClients(t *testing.T) {
	tr := testTrace(t, 300, 4)
	c := newTestController(t)
	const clients = 8
	per := tr.Len() / clients
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for i := lo; i < lo+per; i++ {
				task := tr.Tasks[i]
				req := DecideRequest{Tasks: []TaskSpec{{
					Type: int(task.Type), Arrival: task.Arrival,
					Deadline: task.Deadline, ExecByType: task.ExecByType,
				}}}
				if _, err := c.Decide(context.Background(), &req); err != nil {
					t.Error(err)
					return
				}
			}
		}(w * per)
	}
	// Concurrent observers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.Stats(context.Background()); err != nil {
				t.Error(err)
				return
			}
			c.Metrics().DropRate()
		}
	}()
	wg.Wait()
	if got := c.Metrics().Total(); got != int64(clients*per) {
		t.Fatalf("decided %d tasks, want %d", got, clients*per)
	}
	res, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != clients*per {
		t.Fatalf("drain total %d, want %d", res.Total, clients*per)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainCancelledCallerStillCompletes: a drain whose context is
// cancelled returns promptly, but draining is committed — the drain
// completes in the background, no concurrent waiter is stranded, and the
// result stays retrievable.
func TestDrainCancelledCallerStillCompletes(t *testing.T) {
	tr := testTrace(t, 40, 6)
	c := newTestController(t)
	decideAll(t, c, tr, 10)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Drain(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with cancelled ctx: err = %v", err)
	}
	// Committed: the drain finishes in the background; a patient waiter
	// (e.g. hcserve's SIGTERM path) gets the result.
	res, err := c.Drain(context.Background())
	if err != nil || res == nil {
		t.Fatalf("follow-up drain = (%v, %v)", res, err)
	}
	if res.Total != tr.Len() {
		t.Fatalf("drain total %d, want %d", res.Total, tr.Len())
	}
	if _, err := c.Decide(context.Background(), &DecideRequest{Tasks: []TaskSpec{{Arrival: 1, Deadline: 2}}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("decide after committed drain: err = %v, want ErrDraining", err)
	}
}

// TestControllerRejectsBadSpecs covers construction and request
// validation failures.
func TestControllerRejectsBadSpecs(t *testing.T) {
	for _, cfg := range []Config{
		{Profile: "nosuch"},
		{Profile: "video", Mapper: "nosuch"},
		{Profile: "video", Dropper: "nosuch"},
		{Profile: "video", Dropper: "heuristic:betta=2"},
		{Profile: "video", QueueCap: -1},
		{Profile: "video", Grace: -5},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
	c := newTestController(t)
	defer c.Close()
	if _, err := c.Decide(context.Background(), &DecideRequest{}); err == nil {
		t.Error("empty request accepted")
	}
	bad := &DecideRequest{Tasks: []TaskSpec{{Type: 99, Arrival: 1, Deadline: 2}}}
	if _, err := c.Decide(context.Background(), bad); err == nil {
		t.Error("out-of-range task type accepted")
	}
}

// TestMakeTaskFillsExecFromPET: clients without a trace get deterministic
// PET-mean execution times.
func TestMakeTaskFillsExecFromPET(t *testing.T) {
	c := newTestController(t)
	defer c.Close()
	task := c.makeTask(&TaskSpec{Type: 1, Arrival: 10, Deadline: 100_000}, 0)
	if len(task.ExecByType) != c.matrix.NumMachineTypes() {
		t.Fatalf("exec len %d", len(task.ExecByType))
	}
	for j, e := range task.ExecByType {
		if e < 1 {
			t.Fatalf("exec[%d] = %d", j, e)
		}
	}
}
