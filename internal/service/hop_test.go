package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// TestDecideReusesConnAfterContextEnds: the hook that expires a
// connection when its context ends stays registered while the connection
// sits idle; a decide under a new context after that context ended undoes
// it and reuses the connection, and one under the same context as the
// decide before registers nothing new.
func TestDecideReusesConnAfterContextEnds(t *testing.T) {
	srv, conns := hopServer(t, "", answerDecide)
	cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second})
	tasks := hopTasks(4)
	dst := make([]Decision, len(tasks))
	for range 3 {
		ctx, cancel := context.WithCancel(context.Background())
		for range 2 {
			if _, _, err := cl.Decide(ctx, srv.URL, "", tasks, nil, dst); err != nil {
				t.Fatal(err)
			}
		}
		cancel()
		time.Sleep(10 * time.Millisecond) // the hook has run
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("6 decides under 3 contexts, each ended after its decides, dialed %d connections, want 1", n)
	}
}

// TestDecideAnswerHeadShapes: the in-place reader takes the answers
// service.Server and net/http's server write and leaves the rest to
// http.ReadResponse.
func TestDecideAnswerHeadShapes(t *testing.T) {
	const body = `{"now":1,"decisions":[]}`
	answer := func(status, extra string) string {
		return "HTTP/1.1 " + status + "\r\nContent-Type: application/json\r\n" + extra +
			fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)) + body
	}
	cases := []struct {
		name, raw  string
		ok, close  bool
		status     int
		retryAfter time.Duration
	}{
		{"200", answer("200 OK", "Date: Sun, 18 Oct 2026 01:00:00 GMT\r\n"), true, false, 200, 0},
		{"no reason", answer("200", ""), true, false, 200, 0},
		{"429 Retry-After", answer("429 Too Many Requests", "Retry-After: 1\r\nRetry-After: 9\r\n"), true, false, 429, time.Second},
		{"503", answer("503 Service Unavailable", ""), true, false, 503, 0},
		{"Connection: close", answer("200 OK", "Connection: close\r\n"), true, true, 200, 0},
		{"Connection: keep-alive", answer("200 OK", "connection: Keep-Alive\r\n"), true, false, 200, 0},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", false, false, 0, 0},
		{"no Content-Length", "HTTP/1.1 200 OK\r\n\r\n" + body, false, false, 0, 0},
		{"duplicate Content-Length", answer("200 OK", fmt.Sprintf("Content-Length: %d\r\n", len(body))), false, false, 0, 0},
		{"HTTP/1.0", strings.Replace(answer("200 OK", ""), "HTTP/1.1", "HTTP/1.0", 1), false, false, 0, 0},
		{"bare LF", answer("200 OK", "X-Bare: lf\n"), false, false, 0, 0},
		{"folded line", answer("200 OK", "X-Folded: a\r\n b\r\n"), false, false, 0, 0},
		{"space before colon", answer("200 OK", "X-Space : a\r\n"), false, false, 0, 0},
		{"other Connection", answer("200 OK", "Connection: close, upgrade\r\n"), false, false, 0, 0},
		{"status glued to reason", answer("200OK", ""), false, false, 0, 0},
		{"204", answer("204 No Content", ""), false, false, 0, 0},
		{"1xx first", "HTTP/1.1 100 Continue\r\n\r\n" + answer("200 OK", ""), false, false, 0, 0},
		{"head not all buffered", answer("200 OK", "")[:40], false, false, 0, 0},
	}
	for _, tc := range cases {
		h, n, ok := readAnswerHead([]byte(tc.raw))
		if ok != tc.ok {
			t.Errorf("%s: read in place %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && (h.status != tc.status || h.length != len(body) || h.close != tc.close || h.retryAfter != tc.retryAfter || n != len(tc.raw)-len(body)) {
			t.Errorf("%s: %+v, head %d B", tc.name, h, n)
		}
	}
}

// serverAnswers are answers as Server writes them: a decide's 200, a bad
// body's 400, an unknown route's 404, a method's 405, a shed 429 with its
// Retry-After and a draining 503.
func serverAnswers(tb testing.TB) [][]byte {
	tb.Helper()
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	mux := http.NewServeMux()
	mux.Handle("/", NewHandler(c))
	mux.HandleFunc("POST /shed", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, ErrShardDegraded)
	})
	mux.HandleFunc("GET /drain", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, ErrDraining)
	})
	post := func(path, body string) []byte {
		return fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body)
	}
	nc := &scriptedConn{mark: -1, keep: true, reqs: [][]byte{
		post("/v1/decide", `{"decision_id":"a","tasks":[{"id":"t1","type":1,"arrival":5,"deadline":900}]}`),
		post("/v1/decide", `{"tasks":[`),
		[]byte("GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n"),
		[]byte("GET /v1/decide HTTP/1.1\r\nHost: x\r\n\r\n"),
		post("/shed", "{}"),
		[]byte("GET /drain HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
	}}
	newServerConn(NewServer(mux), nc).serve()
	if len(nc.answers) != len(nc.reqs) {
		tb.Fatalf("%d answers to %d requests", len(nc.answers), len(nc.reqs))
	}
	return nc.answers
}

// FuzzDecideAnswerHead is differential: whenever the hop's in-place
// reader accepts an answer's head, http.ReadResponse, which reads every
// other answer, accepts the same bytes and reads them the same way —
// status, Content-Length, Close, the first Retry-After, the bytes the head
// takes and the body. Seeds are Server's own answers and shapes the
// in-place reader must leave to net/http.
func FuzzDecideAnswerHead(f *testing.F) {
	for _, a := range serverAnswers(f) {
		f.Add(a)
	}
	for _, s := range []string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{} ",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\nContent-Length: 2\n\n{}",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n b\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\n X-Lead: a\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nRetry-After: 7\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: soon\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 204 No Content\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1  200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",
		"HTTP/1.1 200 O\rK\r\nX-Ctl: a\x01b\r\nContent-Length: 2\r\n\r\n{}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, n, ok := readAnswerHead(raw)
		if !ok {
			return
		}
		rd := bytes.NewReader(raw)
		br := bufio.NewReader(rd)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%q: read in place (%+v), http.ReadResponse refused: %v", raw, h, err)
		}
		consumed := len(raw) - br.Buffered() - rd.Len()
		body, berr := io.ReadAll(resp.Body)
		whole := len(raw)-n >= h.length
		if resp.StatusCode != h.status || resp.ContentLength != int64(h.length) || resp.Close != h.close ||
			retryAfterOf(resp.Header.Get("Retry-After")) != h.retryAfter || consumed != n {
			t.Fatalf("%q: in place %+v head %d B; http.ReadResponse status %d length %d close %v Retry-After %q head %d B",
				raw, h, n, resp.StatusCode, resp.ContentLength, resp.Close, resp.Header.Get("Retry-After"), consumed)
		}
		if (berr == nil) != whole || whole && !bytes.Equal(body, raw[n:n+h.length]) {
			t.Fatalf("%q: in place a body of %d B (%v there); http.ReadResponse read %q, %v", raw, h.length, whole, body, berr)
		}
	})
}

// TestDecideChunkedAndCloseAnswers: an answer that says Connection: close
// is read and the connection is not kept. An answer chunked past the
// server's buffer, or delimited by the close, is not in the plain shape:
// it fails with errAnswerShape, its connection is closed, and the ID-less
// decide is not sent again, whatever the retry budget.
func TestDecideChunkedAndCloseAnswers(t *testing.T) {
	// stream answers decision by decision, flushing after each, so net/http
	// frames the answer by te: chunked (""), or delimited by the close
	// ("identity").
	stream := func(te string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.ContentLength < 4096 {
				t.Errorf("request of %d bytes, want a batch past 4 KiB", r.ContentLength)
			}
			w.Header().Set("Content-Type", "application/json")
			if te != "" {
				w.Header().Set("Transfer-Encoding", te)
			}
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
		}
	}
	for _, tc := range []struct {
		name  string
		h     http.HandlerFunc
		shape bool // the answer fails with errAnswerShape
		idle  int  // connections kept after three decides
	}{
		{"chunked", stream(""), true, 0},
		{"close-delimited", stream("identity"), true, 0},
		{"connection close", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Connection", "close")
			answerDecide(w, r)
		}, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv, conns := hopServer(t, "", func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				tc.h(w, r)
			})
			cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second, Retries: 3, Backoff: time.Millisecond})
			tasks := hopTasks(4) // an answer under net/http's buffer carries a Content-Length
			if tc.shape {
				tasks = hopTasks(64)
				for i := range tasks {
					tasks[i].ID += strings.Repeat("x", 64)
				}
			}
			for range 3 {
				if !tc.shape {
					decideOK(t, cl, srv.URL, tasks)
					continue
				}
				_, _, err := cl.Decide(context.Background(), srv.URL, "", tasks, nil, make([]Decision, len(tasks)))
				if !errors.Is(err, errAnswerShape) {
					t.Fatalf("err = %v, want %v", err, errAnswerShape)
				}
			}
			if n, c := conns.Load(), calls.Load(); n != 3 || c != 3 {
				t.Fatalf("3 decides dialed %d connections and reached the server %d times, want 3 and 3", n, c)
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
