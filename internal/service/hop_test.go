package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// hopTasks are n decide specs for the stub backends below.
func hopTasks(n int) []TaskSpec {
	tasks := make([]TaskSpec, n)
	for i := range tasks {
		tasks[i] = TaskSpec{ID: fmt.Sprintf("hop-%d", i), Arrival: 1, Deadline: 100}
	}
	return tasks
}

// answerDecide answers a decide request with one decision per task, at
// clock 7, echoing each task's ID.
func answerDecide(w http.ResponseWriter, r *http.Request) {
	var req DecideRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	resp := DecideResponse{Now: 7, Decisions: make([]Decision, len(req.Tasks))}
	for i, t := range req.Tasks {
		resp.Decisions[i] = Decision{ID: t.ID, Action: ActionMap, Seq: i}
	}
	WriteJSON(w, http.StatusOK, &resp)
}

// hopServer starts h on addr ("": any loopback port) and counts the
// connections it accepts.
func hopServer(t *testing.T, addr string, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv.Listener.Close()
		srv.Listener = ln
	}
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// decideOK decides tasks through cl against base and checks the answer.
func decideOK(t *testing.T, cl *Client, base string, tasks []TaskSpec) {
	t.Helper()
	dst := make([]Decision, len(tasks))
	now, n, err := cl.Decide(context.Background(), base, "", tasks, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	if now != 7 || n != len(tasks) {
		t.Fatalf("answer: now %d, %d decisions; want 7, %d", now, n, len(tasks))
	}
	for i := range dst {
		if dst[i].ID != tasks[i].ID {
			t.Fatalf("decision %d carries %q, want %q", i, dst[i].ID, tasks[i].ID)
		}
	}
}

func TestDecideUsesOneDial(t *testing.T) {
	srv, conns := hopServer(t, "", answerDecide)
	cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second})
	for range 20 {
		decideOK(t, cl, srv.URL, hopTasks(16))
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 decides dialed %d connections, want 1", n)
	}
}

// TestDecideAfterBackendRestart: a backend restarted on the same address
// while the client's connection sat idle costs no failed attempt — the
// idle connection is found closed before reuse, and a fresh one is dialed.
func TestDecideAfterBackendRestart(t *testing.T) {
	first, _ := hopServer(t, "", answerDecide)
	addr := first.Listener.Addr().String()
	cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second}) // no retries
	decideOK(t, cl, first.URL, hopTasks(4))
	first.Close()
	again, conns := hopServer(t, addr, answerDecide)
	decideOK(t, cl, again.URL, hopTasks(4))
	if a := cl.Attempts(); a != 2 {
		t.Fatalf("%d attempts for two decides across a restart, want 2", a)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("the restarted backend accepted %d connections, want 1", n)
	}
}

// TestDecideNotResentWithoutID: the connection dies after the request was
// written. Without a decision ID the request is not sent again, whatever
// the retry budget; with one it is retried.
func TestDecideNotResentWithoutID(t *testing.T) {
	var calls atomic.Int64
	srv, _ := hopServer(t, "", func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		conn, _, err := http.NewResponseController(w).Hijack()
		if err == nil {
			conn.Close()
		}
	})
	cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second, Retries: 3, Backoff: time.Millisecond})
	tasks := hopTasks(2)
	dst := make([]Decision, len(tasks))
	if _, _, err := cl.Decide(context.Background(), srv.URL, "", tasks, nil, dst); err == nil {
		t.Fatal("a dropped connection answered")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("an ID-less decide reached the server %d times, want 1", n)
	}
	if _, _, err := cl.Decide(context.Background(), srv.URL, "hop-id", tasks, nil, dst); err == nil {
		t.Fatal("a dropped connection answered")
	}
	if n := calls.Load(); n != 1+4 {
		t.Fatalf("a decide with an ID reached the server %d times, want 4 (1 + 3 retries)", n-1)
	}
}

// TestDecideCancelMidRead: cancelling the context while the answer is
// awaited returns at once, and the connection, its deadline spent, is not
// reused.
func TestDecideCancelMidRead(t *testing.T) {
	var stall atomic.Bool
	stall.Store(true)
	release := make(chan struct{})
	srv, conns := hopServer(t, "", func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() {
			<-release
			return
		}
		answerDecide(w, r)
	})
	t.Cleanup(func() { close(release) }) // before the server closes
	cl := NewClient(nil, ClientConfig{}) // no per-attempt timeout
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	tasks := hopTasks(3)
	start := time.Now()
	_, _, err := cl.Decide(ctx, srv.URL, "hop-cancel", tasks, nil, make([]Decision, len(tasks)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancellation took %s to return", waited)
	}
	stall.Store(false)
	decideOK(t, cl, srv.URL, tasks)
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the cancelled one must not be reused", n)
	}
}

// TestDecideChunkedAndCloseAnswers: an answer chunked past the server's
// buffer is read to its end and keeps the connection; an answer that says
// Connection: close is read and the connection is not kept.
func TestDecideChunkedAndCloseAnswers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		h     http.HandlerFunc
		conns int64 // dialed for three decides
		idle  int   // kept after them
	}{
		{"chunked", func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength < 4096 {
				t.Errorf("request of %d bytes, want a batch past 4 KiB", r.ContentLength)
			}
			w.Header().Set("Content-Type", "application/json")
			var req DecideRequest
			_ = json.NewDecoder(r.Body).Decode(&req)
			fmt.Fprint(w, `{"now":7,"decisions":[`)
			for i, task := range req.Tasks {
				if i > 0 {
					fmt.Fprint(w, ",")
				}
				fmt.Fprintf(w, `{"id":%q,"action":"map","seq":%d}`, task.ID, i)
				http.NewResponseController(w).Flush()
			}
			fmt.Fprintln(w, `]}`)
		}, 1, 1},
		{"connection close", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "close")
			answerDecide(w, r)
		}, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, conns := hopServer(t, "", tc.h)
			cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second})
			tasks := hopTasks(64)
			for i := range tasks {
				tasks[i].ID += strings.Repeat("x", 64)
			}
			for range 3 {
				decideOK(t, cl, srv.URL, tasks)
			}
			if n := conns.Load(); n != tc.conns {
				t.Fatalf("3 decides dialed %d connections, want %d", n, tc.conns)
			}
			if n := len(cl.origins[srv.URL].idle); n != tc.idle {
				t.Fatalf("%d idle connections kept, want %d", n, tc.idle)
			}
		})
	}
}

// TestBackoffDoublesToCap: the sleep before each retry doubles from the
// configured first delay to maxBackoff and stays there, however many
// attempts a caller budgets (hcload -retries 40 and past), jitter included.
func TestBackoffDoublesToCap(t *testing.T) {
	for _, first := range []time.Duration{time.Millisecond, defaultBackoff, maxBackoff, 10 * maxBackoff} {
		prev := time.Duration(0)
		for attempt := 0; attempt <= 100; attempt++ {
			floor := backoff(first, attempt, 0)
			if floor <= 0 || floor < prev || floor > maxBackoff {
				t.Fatalf("first %s, attempt %d: delay %s after %s; want positive, non-decreasing, at most %s",
					first, attempt, floor, prev, maxBackoff)
			}
			prev = floor
			for _, j := range []uint64{1, 12345, 1 << 40, ^uint64(0)} {
				if d := backoff(first, attempt, j); d < floor || d > maxBackoff*3/2 {
					t.Fatalf("first %s, attempt %d, jitter %d: delay %s outside [%s, %s]",
						first, attempt, j, d, floor, maxBackoff*3/2)
				}
			}
		}
		if got := backoff(first, 100, 0); got != maxBackoff {
			t.Fatalf("first %s: delay after 100 attempts %s, want the cap %s", first, got, maxBackoff)
		}
	}
}
