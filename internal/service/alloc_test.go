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
// assembly). The calculus is allocation-free once warm and the engine
// reuses a settled task's state, so what remains is the per-request
// wiring: the response Decide returns, its decisions and the request this
// test builds, 5 in all. The budget is that plus a margin of 3 (24 while
// the engine allocated each task's state; the pre-arena baseline was ~250
// allocs/op). CI's alloc-regression job runs this test.
const maxControllerDecideAllocs = 8

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
// response, the answer encoded and written from its buffers. The task
// borrows the request's storage and the engine copies it into a settled
// task's state, so nothing is left per decide (a label would add its
// string): what the average counts, about 0.4, is a chain-trie edge or a
// pinned block now and then. It was 3 while each task took a
// workload.Task with its execution times and a TaskState. CI's
// alloc-regression job runs this test.
const maxServerExchangeAllocs = 1

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

// maxRecoveryBytes bounds what recovering a kill -9 journal of the
// serve-recover benchmark's shape allocates: 7 000 single-task decides of
// a 12 000-task trace, labelled, checkpointed every 5 000 records, so the
// tail holds two segments. The scan decodes into one record, the engine
// reuses each settled task's state and the replay queues their storage,
// so what recovery allocates is the restored checkpoint, the labels and
// the calculus warming up — under the collector's 4 MiB floor, so a
// recovered process starts without a collection.
const maxRecoveryBytes = 1 << 20

func TestRecoveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	if testing.Short() {
		t.Skip("serves 7 000 journaled decides")
	}
	cfg := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", JournalDir: t.TempDir(), Fsync: "never"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	decideRange(t, c, testTrace(t, 12000, 1), 0, 7000, 1)
	crash(c)
	c = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("recovery allocates %d B in %d mallocs, %d collections", bytes, mallocs, after.NumGC-before.NumGC)
	if bytes > maxRecoveryBytes {
		t.Fatalf("recovery allocates %d B, budget %d", bytes, maxRecoveryBytes)
	}
}
