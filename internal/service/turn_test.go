package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// turnPanicChild makes the test binary, re-executed by
// TestTurnPanicEndsProcess, play the server whose shard panics.
const turnPanicChild = "TASKDROP_TEST_TURN_PANIC_CHILD"

// TestTurnPanicEndsProcess re-executes the test binary as a server whose
// decide handler panics while holding a shard's turn. net/http recovers a
// handler's panic and keeps serving, which here would leave a shard
// serving half-applied state; the process must die instead, with a
// non-zero status and the panic in its output.
func TestTurnPanicEndsProcess(t *testing.T) {
	if os.Getenv(turnPanicChild) == "1" {
		c := newTestController(t)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_ = c.shards[0].do(r.Context(), func() { panic("boom under the turn") })
		}))
		defer srv.Close()
		if resp, err := srv.Client().Get(srv.URL); err == nil {
			resp.Body.Close()
		}
		time.Sleep(time.Second) // room for the panic to land
		os.Stdout.WriteString("process survived the panic\n")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTurnPanicEndsProcess$")
	cmd.Env = append(os.Environ(), turnPanicChild+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() == 0 {
		t.Fatalf("child exited with %v, want a non-zero status:\n%s", err, out)
	}
	for _, want := range []string{"shard 0 panicked", "boom under the turn"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child output lacks %q:\n%s", want, out)
		}
	}
}

// TestTurnWaitsGivesUpAndStops: an operation waits while another holds the
// turn, gives up when its ctx ends, runs once the turn is free, and is
// refused with ErrDraining after the drain.
func TestTurnWaitsGivesUpAndStops(t *testing.T) {
	c := newTestController(t)
	sh := c.shards[0]
	release := StallShards(c)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ran := false
	if err := sh.do(ctx, func() { ran = true }); !errors.Is(err, context.DeadlineExceeded) || ran {
		t.Fatalf("waiting behind a held turn: err %v, ran %v; want a deadline and no run", err, ran)
	}
	release()
	if err := sh.do(context.Background(), func() { ran = true }); err != nil || !ran {
		t.Fatalf("free turn: err %v, ran %v", err, ran)
	}
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ran = false
	if err := sh.do(context.Background(), func() { ran = true }); !errors.Is(err, ErrDraining) || ran {
		t.Fatalf("drained shard: err %v, ran %v; want ErrDraining and no run", err, ran)
	}
}
