package service

import (
	"context"
	"testing"
)

// maxControllerDecideAllocs bounds the steady-state allocation count of
// one full Controller.Decide round trip (request validation, the shard's
// turn, engine feed including the completion-time calculus, decision
// assembly). The calculus itself is allocation-free once warm; what
// remains is the per-request wiring (task state, response). The pre-arena
// baseline was ~250 allocs/op, so this budget catches any regression that
// reintroduces per-convolution slices. CI's alloc-regression job runs this
// test.
const maxControllerDecideAllocs = 24

func TestControllerDecideAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tasks := benchTasks(t, 4096)
	ctx := context.Background()
	i := 0
	decide := func() {
		task := &tasks[i%len(tasks)]
		i++
		req := DecideRequest{Tasks: []TaskSpec{{
			Type: int(task.Type), Arrival: task.Arrival,
			Deadline: task.Deadline, ExecByType: task.ExecByType,
		}}}
		if _, err := c.Decide(ctx, &req); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 64; k++ { // warm the engine, arena and scratch pools
		decide()
	}
	if avg := testing.AllocsPerRun(200, decide); avg > maxControllerDecideAllocs {
		t.Fatalf("steady-state Controller.Decide allocates %.1f/op, budget %d", avg, maxControllerDecideAllocs)
	}
}
