package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
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

// maxServerExchangeAllocs bounds what the server's side of one
// steady-state single-task decide allocates over a keep-alive connection:
// the head read in place, the body read into the connection's buffer, the
// decode into the connection's request, Controller.Decide into its
// response, the answer encoded and written from its buffers. What is left
// is the task's own state, which outlives the exchange: its execution
// times, its workload.Task and its TaskState (a label would add its
// string). CI's alloc-regression job runs this test.
const maxServerExchangeAllocs = 3

func TestServerExchangeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const warm, measured = 64, 1000
	tasks := benchTasks(t, warm+measured)
	nc := &scriptedConn{mark: warm}
	for i := range tasks {
		task := &tasks[i]
		body := appendDecideRequest(nil, "", []TaskSpec{{
			Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType,
		}}, nil)
		nc.reqs = append(nc.reqs, fmt.Appendf(nil,
			"POST /v1/decide HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	}
	newServerConn(NewServer(NewHandler(c)), nc).serve()
	if nc.ok != len(nc.reqs) {
		t.Fatalf("%d of %d decides answered 200", nc.ok, len(nc.reqs))
	}
	avg := float64(nc.end.Mallocs-nc.start.Mallocs) / measured
	if avg > maxServerExchangeAllocs {
		t.Fatalf("the server's side of a steady-state decide allocates %.2f/op, budget %d", avg, maxServerExchangeAllocs)
	}
	t.Logf("the server's side of a steady-state decide allocates %.2f/op", avg)
}

// scriptedConn is a client that is all wire and no allocations: each Read
// hands over the next of reqs whole, as one segment, and each Write is an
// answer, counted when it is a 200 and kept in answers when keep is set.
// It reads the allocation counters as it hands over request mark and when
// it runs out.
type scriptedConn struct {
	reqs       [][]byte
	next, mark int
	ok         int
	start, end runtime.MemStats
	keep       bool
	answers    [][]byte
}

func (s *scriptedConn) Read(p []byte) (int, error) {
	if s.next == s.mark {
		runtime.ReadMemStats(&s.start)
	}
	if s.next == len(s.reqs) {
		runtime.ReadMemStats(&s.end)
		return 0, io.EOF
	}
	n := copy(p, s.reqs[s.next])
	if s.reqs[s.next] = s.reqs[s.next][n:]; len(s.reqs[s.next]) == 0 {
		s.next++
	}
	return n, nil
}

func (s *scriptedConn) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("HTTP/1.1 200 OK\r\n")) {
		s.ok++
	}
	if s.keep {
		s.answers = append(s.answers, bytes.Clone(p))
	}
	return len(p), nil
}

func (s *scriptedConn) Close() error                     { return nil }
func (s *scriptedConn) LocalAddr() net.Addr              { return nil }
func (s *scriptedConn) RemoteAddr() net.Addr             { return nil }
func (s *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (s *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (s *scriptedConn) SetWriteDeadline(time.Time) error { return nil }
