package front

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
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

// maxFrontDecideAllocs bounds the steady-state allocation count of one
// 16-task Front.Decide over two backends, on the router's side: routing,
// sub-IDs, the two exchanges (http.ReadResponse's response and headers
// among them), the merged response. CI's alloc-regression job runs this
// test.
const maxFrontDecideAllocs = 40

func TestFrontDecideAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	f := quietFront(t, []string{instantBackend(t, nil), instantBackend(t, nil)})
	req := splitBatch(t, f)
	// A server handler's context: cancellable, as the hop must watch it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	decide := func() {
		if _, err := f.Decide(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		decide()
	}
	if avg := testing.AllocsPerRun(200, decide); avg > maxFrontDecideAllocs {
		t.Fatalf("steady-state Front.Decide allocates %.1f/op, budget %d", avg, maxFrontDecideAllocs)
	}
}

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
