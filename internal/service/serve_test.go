package service_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hpcclab/taskdrop/internal/front"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// serveShipped serves h on a service.Server over a loopback listener until
// the test ends, and returns the listener's address.
func serveShipped(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(h)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// rawAnswer is one response as the differential test compares it.
type rawAnswer struct {
	Interim []int // 1xx statuses before the final one
	Status  int
	Header  map[string]string // the headers the handlers set that clients read
	Body    string
}

// rawOutcome is what one connection carried back.
type rawOutcome struct {
	Answers []rawAnswer
	Open    bool // the connection stayed open after the last answer
}

// exchangeRaw writes raw to a new connection to addr, reads n answers and
// reports whether the server kept the connection open after them.
func exchangeRaw(t *testing.T, addr string, raw []byte, n int) rawOutcome {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The server may answer before it has read everything, so the write
	// runs beside the reads; closing nc ends it.
	go nc.Write(raw)
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(nc)
	var out rawOutcome
	for len(out.Answers) < n {
		var a rawAnswer
		for {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("answer %d: %v", len(out.Answers), err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("answer %d body: %v", len(out.Answers), err)
			}
			if resp.StatusCode < 200 {
				a.Interim = append(a.Interim, resp.StatusCode)
				continue
			}
			a.Status, a.Body = resp.StatusCode, string(body)
			a.Header = map[string]string{}
			for _, k := range []string{"Content-Type", "Retry-After", "Allow"} {
				if v := resp.Header.Get(k); v != "" {
					a.Header[k] = v
				}
			}
			break
		}
		out.Answers = append(out.Answers, a)
	}
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	_, err = br.Peek(1)
	var ne net.Error
	out.Open = errors.As(err, &ne) && ne.Timeout()
	return out
}

// diffCase is one raw exchange of the differential test.
type diffCase struct {
	name string
	raw  string
	n    int  // answers expected
	big  bool // megabytes on the wire: run on one tier only
}

func postRaw(path, body, extra string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n" + extra + "\r\n" + body
}

func decideJSON(id string, arrival int) string {
	return fmt.Sprintf(`{"decision_id":%q,"tasks":[{"id":"t%d","type":%d,"arrival":%d,"deadline":%d}]}`,
		id, arrival, arrival%4, arrival, arrival+4000)
}

func diffCases() []diffCase {
	chunked := decideJSON("diff-chunked", 20)
	return []diffCase{
		{name: "codec decide", raw: postRaw("/v1/decide", decideJSON("diff-1", 10), ""), n: 1},
		{name: "duplicate decision_id", raw: postRaw("/v1/decide", decideJSON("diff-1", 10), ""), n: 1},
		{name: "bad JSON", raw: postRaw("/v1/decide", `{"tasks":[`, ""), n: 1},
		{name: "body over maxDecideBody", raw: postRaw("/v1/decide", "{"+strings.Repeat(" ", 17<<20), ""), n: 1, big: true},
		{name: "chunked body", n: 1, raw: "POST /v1/decide HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
			strconv.FormatInt(int64(len(chunked)), 16) + "\r\n" + chunked + "\r\n0\r\n\r\n"},
		{name: "Expect: 100-continue", raw: postRaw("/v1/decide", decideJSON("diff-expect", 30), "Expect: 100-continue\r\n"), n: 1},
		{name: "HTTP/1.0", raw: "GET /healthz HTTP/1.0\r\n\r\n", n: 1},
		{name: "Connection: close", raw: "GET /readyz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", n: 1},
		{name: "two pipelined requests", raw: "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /readyz HTTP/1.1\r\nHost: x\r\n\r\n", n: 2},
		{name: "malformed request line", raw: "GARBAGE\r\n\r\n", n: 1},
		{name: "oversized header", raw: "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("a", 1<<20+8192) + "\r\n\r\n", n: 1, big: true},
		{name: "404", raw: "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", n: 1},
		{name: "405 with Allow", raw: "GET /v1/decide HTTP/1.1\r\nHost: x\r\n\r\n", n: 1},
	}
}

// TestServerMatchesNetHTTP: the same handlers behind net/http's server and
// behind service.Server answer the same raw requests with the same status,
// headers and bytes, and keep or close the connection alike. Each side has
// its own controller (or fleet), fed the same requests in the same order.
func TestServerMatchesNetHTTP(t *testing.T) {
	tiers := []struct {
		name    string
		handler func(t *testing.T) http.Handler
		big     bool
	}{
		{"service", func(t *testing.T) http.Handler {
			c, err := service.New(service.Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return service.NewHandler(c)
		}, true},
		{"front", func(t *testing.T) http.Handler {
			c, err := service.New(service.Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			f, err := front.New(front.Config{Backends: []string{"http://" + serveShipped(t, service.NewHandler(c))},
				Profile: "video", Poll: 10 * time.Millisecond, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Close)
			waitFor(t, "the backend in rotation", func() bool { return f.NumReady() == 1 })
			return front.NewHandler(f)
		}, false},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			ref := httptest.NewServer(tier.handler(t))
			defer ref.Close()
			shipped := serveShipped(t, tier.handler(t))
			for _, tc := range diffCases() {
				if tc.big && !tier.big {
					continue
				}
				want := exchangeRaw(t, ref.Listener.Addr().String(), []byte(tc.raw), tc.n)
				got := exchangeRaw(t, shipped, []byte(tc.raw), tc.n)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\nservice.Server %+v\nnet/http       %+v", tc.name, got, want)
				}
			}
		})
	}
}

// TestServerShutdown: Shutdown closes an idle connection at once, refuses
// new connections, answers the decide in flight and then returns; Serve
// returns http.ErrServerClosed.
func TestServerShutdown(t *testing.T) {
	c, err := service.New(service.Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := service.NewHandler(c)
	entered := make(chan struct{})
	srv := service.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/decide" {
			close(entered)
		}
		h.ServeHTTP(w, r)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if out := exchangeOn(t, idle, "GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n"); out.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", out.StatusCode)
	}

	release := service.StallShards(c)
	decided := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/decide", "application/json", strings.NewReader(decideJSON("", 10)))
		if err != nil {
			t.Error(err)
			decided <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		decided <- resp.StatusCode
	}()
	<-entered
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()

	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := idle.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("idle connection during shutdown: read %d, %v; want EOF at once", n, err)
	}
	select {
	case err := <-served:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Fatal("a new dial was accepted after Shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a decide in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if code := <-decided; code != http.StatusOK {
		t.Fatalf("decide in flight across Shutdown: HTTP %d, want 200", code)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestServerShutdownDeadlineEndsRequests: a request's context ends when
// Shutdown's does, so a handler waiting on it gives up, and Shutdown
// returns its context's error.
func TestServerShutdownDeadlineEndsRequests(t *testing.T) {
	entered := make(chan struct{})
	srv := service.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			t.Error(err)
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want its deadline", err)
	}
	if code := <-answered; code != http.StatusServiceUnavailable {
		t.Fatalf("request whose context ended: HTTP %d, want 503", code)
	}
	<-served
}

// exchangeOn writes one raw request on nc and reads its answer.
func exchangeOn(t *testing.T, nc net.Conn, raw string) *http.Response {
	t.Helper()
	if _, err := io.WriteString(nc, raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	return resp
}

// grownRequests sends 200 keep-alive GETs over one connection to addr and
// counts those during whose handler more goroutines ran than just before
// the request was written. seen is where the handler records its count.
func grownRequests(t *testing.T, addr string, seen <-chan int) int {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	grown := 0
	for range 200 {
		before := runtime.NumGoroutine()
		if _, err := io.WriteString(nc, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		if <-seen > before {
			grown++
		}
	}
	return grown
}

// TestServerDateHeader: every answer's Date parses as http.TimeFormat and
// names the second it was written in, although Server formats it at most
// once a second: three answers 600 ms apart cross at least one second.
func TestServerDateHeader(t *testing.T) {
	addr := serveShipped(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var dates []time.Time
	for i := range 3 {
		if i > 0 {
			time.Sleep(600 * time.Millisecond)
		}
		before := time.Now()
		if _, err := io.WriteString(nc, "GET / HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		after := time.Now()
		date, err := http.ParseTime(resp.Header.Get("Date"))
		if err != nil {
			t.Fatalf("answer %d: Date %q: %v", i, resp.Header.Get("Date"), err)
		}
		if date.Before(before.Truncate(time.Second)) || date.After(after) {
			t.Fatalf("answer %d: Date %s, written between %s and %s", i, date, before, after)
		}
		dates = append(dates, date)
	}
	if !dates[2].After(dates[0]) {
		t.Fatalf("Date stayed %s over 1.2 s", dates[0])
	}
}

// TestServerStartsNoGoroutinePerRequest: a request runs on its
// connection's goroutine and starts none, so the goroutine count inside
// the handler is the one between requests. net/http's server fails the
// same check: it starts a background reader for every request.
func TestServerStartsNoGoroutinePerRequest(t *testing.T) {
	seen := make(chan int, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- runtime.NumGoroutine()
	})
	// A goroutine some earlier test left running (a timer's, a client
	// connection's) may start between the two counts: allow two of 200.
	const allowed = 2
	if n := grownRequests(t, serveShipped(t, h), seen); n > allowed {
		t.Fatalf("%d of 200 keep-alive requests ran beside an extra goroutine", n)
	}
	ref := httptest.NewServer(h)
	defer ref.Close()
	if n := grownRequests(t, ref.Listener.Addr().String(), seen); n <= allowed {
		t.Fatalf("vacuous: net/http's server passes the check too (%d of 200 grew)", n)
	}
}

// maxServerDecideAllocs bounds the steady-state allocation count of one
// single-task decide over a keep-alive connection to a service.Server,
// both ends of the hop. The client makes none: it reads the answer in
// place (readAnswerHead) into its connection's buffer and decodes the
// decision into the caller's slot, its machine name the client's own
// string. The server makes less than one, counted alone by
// TestServerExchangeAllocsSteadyState: the engine copies the task into a
// settled task's state and the heuristic drops into calculus scratch, so
// what is left is now and then a chain-trie edge or a pinned block
// growing to a new high-water mark. The budget is a margin of 3 over
// that (6 while the server allocated each task's storage, 17 while the
// client read the answer with http.ReadResponse). CI's alloc-regression
// job runs this test.
const maxServerDecideAllocs = 3

func TestServerDecideAllocsSteadyState(t *testing.T) {
	if service.RaceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	c, err := service.New(service.Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := "http://" + serveShipped(t, service.NewHandler(c))
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack}
	tr := workload.Generate(m, cfg.Scaled(0.01), 1)
	names := make([]string, len(m.Machines()))
	for i, spec := range m.Machines() {
		names[i] = spec.Name
	}
	cl := service.NewClient(nil, service.ClientConfig{Timeout: 5 * time.Second, MachineNames: names})
	spec, dst := make([]service.TaskSpec, 1), make([]service.Decision, 1)
	ctx := context.Background()
	i := 0
	decide := func() {
		task := tr.Tasks[i%len(tr.Tasks)]
		i++
		spec[0] = service.TaskSpec{Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
		if _, _, err := cl.Decide(ctx, base, "", spec, nil, dst); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		decide()
	}
	avg := testing.AllocsPerRun(200, decide)
	if avg > maxServerDecideAllocs {
		t.Fatalf("steady-state decide over service.Server allocates %.1f/op, budget %d", avg, maxServerDecideAllocs)
	}
	t.Logf("steady-state decide over service.Server allocates %.1f/op", avg)
}

// FuzzDecideHead is differential: whenever the server's in-place reader
// accepts a decide head, http.ReadRequest, which reads every other
// request, accepts the same bytes and reads them the same way — method,
// path, protocol, Host, Content-Length, Close and the bytes the head takes.
// Seeds are TestServerMatchesNetHTTP's requests and request-smuggling
// shapes the in-place reader must leave to net/http.
func FuzzDecideHead(f *testing.F) {
	for _, tc := range diffCases() {
		if !tc.big {
			f.Add([]byte(tc.raw))
		}
	}
	body := decideJSON("fuzz", 40)
	for _, extra := range []string{
		"Transfer-Encoding: chunked\r\n",
		"Content-Length: 1\r\n",
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n",
		"X-Folded: a\r\n b\r\n",
		"Host: y\r\n",
		"Connection: keep-alive\r\n",
		"Connection: close, keep-alive\r\n",
		"content-length : 5\r\n",
		"X-Bare: lf\n",
	} {
		f.Add([]byte(postRaw("/v1/decide", body, extra)))
	}
	f.Add([]byte("POST /v1/decide HTTP/1.1\nHost: x\nContent-Length: 2\n\n{}"))
	f.Add([]byte("POST /v1/decide HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"))
	f.Add([]byte("POST /v1/decide HTTP/1.1\r\n Host: x\r\nContent-Length: 2\r\n\r\n{}"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		host, length, closing, n, ok := service.ReadDecideHead(raw)
		if !ok {
			return
		}
		rd := bytes.NewReader(raw)
		br := bufio.NewReader(rd)
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("%q: read in place (Host %q, Content-Length %d), http.ReadRequest refused: %v", raw, host, length, err)
		}
		consumed := len(raw) - br.Buffered() - rd.Len()
		if req.Method != http.MethodPost || req.URL.Path != "/v1/decide" || req.Proto != "HTTP/1.1" ||
			req.Host != host || req.ContentLength != int64(length) || req.Close != closing || consumed != n {
			t.Fatalf("%q: in place %s %q %d close=%v head %d B; http.ReadRequest %s %s %s %q %d close=%v head %d B",
				raw, "POST /v1/decide HTTP/1.1", host, length, closing, n,
				req.Method, req.URL.Path, req.Proto, req.Host, req.ContentLength, req.Close, consumed)
		}
	})
}

// TestDecideHeadShapes: the in-place reader takes the shapes clients send
// — service.Client's, net/http's — and leaves the rest to http.ReadRequest.
func TestDecideHeadShapes(t *testing.T) {
	body := decideJSON("shapes", 40)
	plain := postRaw("/v1/decide", body, "")
	cases := []struct {
		name, raw string
		ok, close bool
	}{
		{"service.Client", plain, true, false},
		{"net/http client", postRaw("/v1/decide", body, "User-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n"), true, false},
		{"Connection: close", postRaw("/v1/decide", body, "Connection: close\r\n"), true, true},
		{"Connection: keep-alive", postRaw("/v1/decide", body, "connection: Keep-Alive\r\n"), true, false},
		{"Transfer-Encoding", postRaw("/v1/decide", body, "Transfer-Encoding: chunked\r\n"), false, false},
		{"duplicate Content-Length", postRaw("/v1/decide", body, "Content-Length: "+strconv.Itoa(len(body))+"\r\n"), false, false},
		{"duplicate Host", postRaw("/v1/decide", body, "Host: x\r\n"), false, false},
		{"folded line", postRaw("/v1/decide", body, "X-Folded: a\r\n b\r\n"), false, false},
		{"Expect", postRaw("/v1/decide", body, "Expect: 100-continue\r\n"), false, false},
		{"bare LF", postRaw("/v1/decide", body, "X-Bare: lf\n"), false, false},
		{"space before colon", postRaw("/v1/decide", body, "X-Space : a\r\n"), false, false},
		{"other Connection", postRaw("/v1/decide", body, "Connection: close, upgrade\r\n"), false, false},
		{"head not all buffered", plain[:strings.Index(plain, "\r\n\r\n")+2], false, false},
		{"query", postRaw("/v1/decide?x=1", body, ""), false, false},
		{"HTTP/1.0", strings.Replace(plain, "HTTP/1.1", "HTTP/1.0", 1), false, false},
		{"other route", postRaw("/v1/drain", body, ""), false, false},
		{"body over the bound", "POST /v1/decide HTTP/1.1\r\nHost: x\r\nContent-Length: 16777217\r\n\r\n", false, false},
	}
	for _, tc := range cases {
		host, length, closing, n, ok := service.ReadDecideHead([]byte(tc.raw))
		if ok != tc.ok {
			t.Errorf("%s: read in place %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if ok && (host != "x" || length != len(body) || closing != tc.close || n != len(tc.raw)-len(body)) {
			t.Errorf("%s: Host %q, Content-Length %d, close %v, head %d B", tc.name, host, length, closing, n)
		}
	}
}
