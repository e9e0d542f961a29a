package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock advances only when asked: each Now costs tick, each Sleep its
// argument plus oversleep (the timer slack the spin window exists for).
type fakeClock struct {
	t         time.Time
	tick      time.Duration
	oversleep time.Duration
	slept     []time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.t = c.t.Add(c.tick)
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.t = c.t.Add(d + c.oversleep)
}

func TestPaceSleepsShortAndSpinsTheRest(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), tick: 10 * time.Microsecond, oversleep: time.Millisecond}
	due := clk.t.Add(20 * time.Millisecond)
	lag := pace(clk, due)
	if len(clk.slept) != 1 || clk.slept[0] >= 20*time.Millisecond-spinWindow {
		t.Fatalf("slept %v, want one sleep ending %v short of the due time", clk.slept, spinWindow)
	}
	// 1 ms of oversleep is absorbed by the 3 ms spin window: the pacer
	// lets go within one clock tick of the due time.
	if lag < 0 || lag >= clk.tick {
		t.Fatalf("lag %v, want within one tick (%v)", lag, clk.tick)
	}

	// A due time already in the past: no sleep, the lag is reported.
	clk = &fakeClock{t: time.Unix(0, 0), tick: 10 * time.Microsecond}
	lag = pace(clk, clk.t.Add(-2*time.Millisecond))
	if len(clk.slept) != 0 || lag < 2*time.Millisecond {
		t.Fatalf("late start: slept %v lag %v", clk.slept, lag)
	}
}

// TestOpenLoopCountsFromDueTime: a request held back by the one before it
// pays for the wait — its latency runs from when it was due, and the
// generator reports how late it sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), tick: time.Microsecond}
	const service = 2 * time.Millisecond
	post := func(b []byte) ([]byte, error) {
		clk.t = clk.t.Add(service)
		return b, nil
	}
	reqs := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	due := []time.Duration{0, time.Millisecond, 10 * time.Millisecond}
	res := runLoad(clk, post, reqs, due)
	if res.failed != 0 || len(res.latUS) != 3 || len(res.lagUS) != 3 || len(res.bodies) != 3 {
		t.Fatalf("result %+v", res)
	}
	within := func(got, want float64) bool { return got >= want && got < want+50 } // a few clock ticks
	// b was due at 1 ms but a held the connection until 2 ms: sent 1 ms
	// late, answered at 4 ms, so 3 ms from its due time — not 2 ms.
	if !within(res.lagUS[1], 1000) || !within(res.latUS[1], 3000) {
		t.Errorf("held-back request: lag %v us, latency %v us; want 1000 and 3000", res.lagUS[1], res.latUS[1])
	}
	// c was due after the backlog cleared: on time, pure service time.
	if !within(res.lagUS[2], 0) || !within(res.latUS[2], 2000) {
		t.Errorf("on-time request: lag %v us, latency %v us; want 0 and 2000", res.lagUS[2], res.latUS[2])
	}
	if res.wall < 12*time.Millisecond {
		t.Errorf("wall %v, want the schedule's 10 ms plus the last service time", res.wall)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0), tick: time.Microsecond}
	calls := 0
	post := func(b []byte) ([]byte, error) {
		calls++
		if calls == 2 {
			return nil, errors.New("HTTP 503")
		}
		clk.t = clk.t.Add(time.Millisecond)
		return b, nil
	}
	res := runLoad(clk, post, make([][]byte, 4), nil)
	if res.failed != 1 || res.err == nil || len(res.latUS) != 3 || res.lagUS != nil {
		t.Fatalf("one failure among four: %+v", res)
	}

	// A dead server ends the phase early and fails the rest.
	dead := func([]byte) ([]byte, error) { return nil, errors.New("connection refused") }
	res = runLoad(clk, dead, make([][]byte, 100), nil)
	if res.failed != 100 || len(res.latUS) != 0 {
		t.Fatalf("dead server: failed %d of 100, %d latencies", res.failed, len(res.latUS))
	}
}

func TestCheckAcks(t *testing.T) {
	ok := [][]byte{
		[]byte(`{"now":1,"decisions":[{"id":"t0","seq":0,"action":"map","shard":0,"machine":1}]}`),
		[]byte(`{"now":2,"decisions":[{"id":"t1","seq":1,"action":"defer","shard":0,"machine":-1},{"id":"t2","seq":2,"action":"drop","shard":0,"machine":-1}]}`),
	}
	if errs := checkAcks(ok, 3); len(errs) != 0 {
		t.Fatalf("clean acks rejected: %v", errs)
	}
	if errs := checkAcks(ok, 4); len(errs) == 0 {
		t.Error("a lost ack passed")
	}
	dup := append([][]byte{ok[0]}, ok...)
	if errs := checkAcks(dup, 4); len(errs) == 0 {
		t.Error("a duplicate ack passed")
	}
	if errs := checkAcks([][]byte{[]byte(`{"decisions":[{"id":"t0","action":"maybe"}]}`)}, 1); len(errs) == 0 {
		t.Error("an unknown action passed")
	}
}
