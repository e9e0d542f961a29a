package front

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcclab/taskdrop/internal/service"
)

// instantBackend serves a backend that answers at once and without
// net/http: /readyz ready, /healthz the video profile, and a decide with a
// map decision per task. In steady state it allocates
// nothing, so what a Front.Decide over it allocates is the router's own.
// hold, when set, runs before each decide is answered.
func instantBackend(t testing.TB, hold func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveInstant(nc, hold)
		}
	}()
	return "http://" + ln.Addr().String()
}

func serveInstant(nc net.Conn, hold func()) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var body, ans, out []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		get, ready := bytes.HasPrefix(line, []byte("GET ")), bytes.Contains(line, []byte("/readyz"))
		size := 0
		for {
			h, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(h) <= 2 {
				break
			}
			if v, ok := bytes.CutPrefix(h, []byte("Content-Length: ")); ok {
				for _, c := range bytes.TrimSpace(v) {
					size = 10*size + int(c-'0')
				}
			}
		}
		body = append(body[:0], make([]byte, size)...)
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		switch {
		case get && ready:
			ans = append(ans[:0], `{"ready":true,"status":"ok"}`...)
		case get:
			ans = append(ans[:0], `{"status":"ok","profile":"video"}`...)
		default:
			if hold != nil {
				hold()
			}
			ans = append(ans[:0], `{"now":1,"decisions":[`...)
			for i := range bytes.Count(body, []byte(`"type":`)) {
				if i > 0 {
					ans = append(ans, ',')
				}
				ans = append(ans, `{"seq":0,"action":"map","shard":0,"machine":0}`...)
			}
			ans = append(ans, "]}\n"...)
		}
		out = append(out[:0], "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: "...)
		out = append(strconv.AppendInt(out, int64(len(ans)), 10), "\r\n\r\n"...)
		out = append(out, ans...)
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// quietFront is a Front over urls with its pollers stopped once every
// backend is in rotation: nothing but the decide under test runs in it.
func quietFront(t testing.TB, urls []string) *Front {
	t.Helper()
	f := newFront(t, urls, nil)
	f.stopOnce.Do(func() { close(f.stop) })
	f.pollWG.Wait()
	return f
}

// splitBatch is a 16-task request whose classes are homed on both backends.
func splitBatch(t testing.TB, f *Front) *service.DecideRequest {
	t.Helper()
	tr := testTrace(t, 240, 5)
	for lo := 0; lo+16 <= tr.Len(); lo += 16 {
		req := &service.DecideRequest{Tasks: specsOf(tr, lo, lo+16)}
		resp, err := f.Decide(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, d := range resp.Decisions {
			seen[d.Backend] = true
		}
		if len(seen) == 2 {
			return req
		}
	}
	t.Fatal("no 16-task batch of the trace spans both backends")
	return nil
}

// TestFrontDecideRunsOnCallersGoroutine: a decide over two backends writes
// both sub-requests before it reads either answer, and starts no goroutine
// to do so — while both backends hold their answers, exactly one goroutine
// is inside the Front: the caller.
func TestFrontDecideRunsOnCallersGoroutine(t *testing.T) {
	var (
		armed   atomic.Bool
		arrived atomic.Int32
		stacks  string
	)
	both := make(chan struct{})
	hold := func() {
		if !armed.Load() {
			return
		}
		if arrived.Add(1) == 2 {
			buf := make([]byte, 1<<20)
			stacks = string(buf[:runtime.Stack(buf, true)])
			close(both)
		}
		select {
		case <-both:
		case <-time.After(5 * time.Second):
			t.Error("a sub-request's answer was awaited before the other sub-request was written")
		}
	}
	f := quietFront(t, []string{instantBackend(t, hold), instantBackend(t, hold)})
	req := splitBatch(t, f)
	armed.Store(true)
	if _, err := f.Decide(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	<-both
	inside := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "internal/front.(*Front)") {
			inside++
		}
	}
	if inside != 1 {
		t.Fatalf("%d goroutines inside the Front while both backends held their answers, want 1 (the caller):\n%s", inside, stacks)
	}
}

// maxFrontDecideAllocs bounds what the router allocates for one
// steady-state 16-task decide over two backends, served through its decide
// route over a scripted connection: the head and body read in place, the
// decode into the connection's request, routing and sub-IDs in the
// connection's storage, both exchanges read in place with their decisions'
// labels shared with the request's, the merged answer encoded and written
// from the connection's buffers. What is left is the one string the
// request's 16 labels are cut from: 1 measured (30 when Front.Decide was
// counted alone, with http.ReadResponse, per-request routing slices and
// sub-ID strings, and a context hook per attempt), plus a margin of 3.
// CI's alloc-regression job runs this test.
const maxFrontDecideAllocs = 4

func TestFrontDecideAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	f := quietFront(t, []string{instantBackend(t, nil), instantBackend(t, nil)})
	body, err := json.Marshal(splitBatch(t, f))
	if err != nil {
		t.Fatal(err)
	}
	raw := fmt.Appendf(nil, "POST /v1/decide HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	const warm, measured = 64, 1000
	nc := &scriptedConn{mark: warm, closed: make(chan struct{})}
	for range warm + measured {
		nc.reqs = append(nc.reqs, bytes.Clone(raw))
	}
	serveScripted(t, NewHandler(f), nc)
	if nc.ok != len(nc.reqs) {
		t.Fatalf("%d of %d decides answered 200", nc.ok, len(nc.reqs))
	}
	avg := float64(nc.end.Mallocs-nc.start.Mallocs) / measured
	if avg > maxFrontDecideAllocs {
		t.Fatalf("the router's side of a steady-state 16-task decide allocates %.2f/op, budget %d", avg, maxFrontDecideAllocs)
	}
	t.Logf("the router's side of a steady-state 16-task decide allocates %.2f/op", avg)
}

// serveScripted serves nc, one connection, on a service.Server answering
// with h, and returns once the server is done with it.
func serveScripted(t *testing.T, h http.Handler, nc *scriptedConn) {
	t.Helper()
	srv := service.NewServer(h)
	ln := &oneConnListener{nc: nc, closed: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	<-nc.closed
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// oneConnListener accepts one connection, then none until it is closed.
type oneConnListener struct {
	nc     net.Conn
	once   sync.Once
	closed chan struct{}
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	if nc := l.nc; nc != nil {
		l.nc = nil
		return nc, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return nil }

// scriptedConn is a client that is all wire and no allocations: each Read
// hands over the next of reqs whole, and each Write is an answer, counted
// when it is a 200. It reads the allocation counters as it hands over
// request mark and when it runs out, and Close closes closed.
type scriptedConn struct {
	reqs       [][]byte
	next, mark int
	ok         int
	start, end runtime.MemStats
	closed     chan struct{}
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
	return len(p), nil
}

func (s *scriptedConn) Close() error {
	close(s.closed)
	return nil
}

func (s *scriptedConn) LocalAddr() net.Addr              { return nil }
func (s *scriptedConn) RemoteAddr() net.Addr             { return nil }
func (s *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (s *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (s *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkFrontDecide times the router's side of one 16-task decide over
// two instant backends on loopback: routing, both exchanges, the merge.
func BenchmarkFrontDecide(b *testing.B) {
	f := quietFront(b, []string{instantBackend(b, nil), instantBackend(b, nil)})
	req := splitBatch(b, f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := f.Decide(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplayReportsEveryBackendShard: behind a router every 1-shard
// backend reports shard 0, so the replay's latency breakdown is keyed by
// (backend, shard) — two entries, not one.
func TestReplayReportsEveryBackendShard(t *testing.T) {
	tr := testTrace(t, 160, 5)
	f := newFront(t, newBackends(t, 2), nil)
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()
	rep, err := service.Replay(context.Background(), srv.URL, tr, service.ReplayConfig{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerShard) != 2 {
		t.Fatalf("per-shard latencies %+v, want two entries", rep.PerShard)
	}
	for i, sl := range rep.PerShard {
		if sl.Backend != i || sl.Shard != 0 || sl.Requests == 0 {
			t.Fatalf("entry %d is %+v, want backend %d shard 0 with requests", i, sl, i)
		}
	}
}
