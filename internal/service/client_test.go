package service

import (
	"bufio"
	"context"
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

// flakyServer fails the first n requests with status, then succeeds.
func flakyServer(t *testing.T, n int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(status)
			fmt.Fprintln(w, `{"error":"induced failure"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestClientRetriesServerErrors(t *testing.T) {
	srv, calls := flakyServer(t, 2, http.StatusInternalServerError, "")
	cl := NewClient(nil, ClientConfig{Retries: 3, Backoff: time.Millisecond})
	var out struct {
		OK bool `json:"ok"`
	}
	if err := cl.PostJSON(context.Background(), srv.URL, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK {
		t.Fatal("success response not decoded")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 failures + success)", got)
	}
	if got := cl.Attempts(); got != 3 {
		t.Fatalf("Attempts() = %d, want 3", got)
	}
}

func TestClientStopsWhenBudgetSpent(t *testing.T) {
	srv, calls := flakyServer(t, 100, http.StatusInternalServerError, "")
	cl := NewClient(nil, ClientConfig{Retries: 2, Backoff: time.Millisecond})
	err := cl.PostJSON(context.Background(), srv.URL, nil, nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want the final 500", err)
	}
	if he.Msg != "induced failure" {
		t.Fatalf("error body not surfaced: %q", he.Msg)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	srv, calls := flakyServer(t, 100, http.StatusBadRequest, "")
	cl := NewClient(nil, ClientConfig{Retries: 5, Backoff: time.Millisecond})
	err := cl.PostJSON(context.Background(), srv.URL, nil, nil)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("a 400 was retried: %d attempts", got)
	}
}

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	srv, calls := flakyServer(t, 1, http.StatusTooManyRequests, "1")
	// Backoff would be instant; Retry-After must stretch the sleep to ~1s.
	cl := NewClient(nil, ClientConfig{Retries: 1, Backoff: time.Millisecond})
	start := time.Now()
	if err := cl.PostJSON(context.Background(), srv.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < 900*time.Millisecond {
		t.Fatalf("retried after %s; Retry-After: 1 ignored", waited)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	// A server that is down: connection refused is retryable, and the
	// retries are observable through Attempts.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	cl := NewClient(nil, ClientConfig{Retries: 2, Backoff: time.Millisecond})
	if err := cl.PostJSON(context.Background(), url, nil, nil); err == nil {
		t.Fatal("dead server answered")
	}
	if got := cl.Attempts(); got != 3 {
		t.Fatalf("Attempts() = %d, want 3", got)
	}
}

// TestReplaySendsChurnOnce: a membership operation is not idempotent, so
// Replay sends each churn action once whatever its retry budget. A server
// that applies an add and then drops the connection applies it once, and
// the replay fails with the lost answer's error.
func TestReplaySendsChurnOnce(t *testing.T) {
	var applied atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/admin/machines" {
			http.Error(w, "unexpected request", http.StatusNotFound)
			return
		}
		applied.Add(1)
		conn, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		conn.Close()
	}))
	defer srv.Close()
	_, err := Replay(context.Background(), srv.URL, testTrace(t, 20, 1), ReplayConfig{
		Retries: 2, Backoff: time.Millisecond,
		Churn: []ChurnAction{{AtTask: 0, Req: AdminMachineRequest{Op: "add", Shard: 0, Type: 1}}},
	})
	if err == nil || !strings.Contains(err.Error(), "churn action at task 0 (add)") {
		t.Fatalf("replay over a lost admin answer: %v, want the churn action's error", err)
	}
	if n := applied.Load(); n != 1 {
		t.Fatalf("the add was applied %d times, want once", n)
	}
}

func TestClientPerAttemptTimeout(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // first attempt hangs past the per-attempt timeout
		}
		fmt.Fprintln(w, `{}`)
	}))
	defer srv.Close()
	defer close(release)
	cl := NewClient(nil, ClientConfig{Timeout: 50 * time.Millisecond, Retries: 1, Backoff: time.Millisecond})
	if err := cl.PostJSON(context.Background(), srv.URL, nil, nil); err != nil {
		t.Fatalf("second attempt should have succeeded: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2 (timeout + success)", got)
	}
}

func TestClientContextCancelsBackoffSleep(t *testing.T) {
	srv, _ := flakyServer(t, 100, http.StatusInternalServerError, "60")
	cl := NewClient(nil, ClientConfig{Retries: 1, Backoff: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := cl.PostJSON(ctx, srv.URL, nil, nil); err == nil {
		t.Fatal("expected failure")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("context cancellation did not cut the Retry-After sleep (%s)", waited)
	}
}

// TestClientReusesConnections posts ten times per response shape and
// requires one TCP connection each time: a connection is reused only after
// the previous response was read to EOF, so a body the client does not
// decode — an admin post's answer, an error body — must still be read off.
// GetJSON, PostJSON and Decide to one server share its connections.
func TestClientReusesConnections(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		out    any
	}{
		{"nil out", http.StatusOK, nil},
		{"decoded out", http.StatusOK, &struct{}{}},
		{"error body", http.StatusConflict, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := serveLoopback(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				// Past what a JSON decoder buffers, so decoding alone does not
				// reach EOF.
				fmt.Fprintf(w, "{\"error\":\"x\"}\n%s\n", strings.Repeat(" ", 4096))
			}))
			cl := NewClient(nil, ClientConfig{})
			for i := 0; i < 10; i++ {
				err := cl.PostJSON(context.Background(), srv.URL, nil, tc.out)
				if (err != nil) != (tc.status != http.StatusOK) {
					t.Fatalf("post %d: %v", i, err)
				}
			}
			if n := srv.conns.Load(); n != 1 {
				t.Fatalf("10 posts opened %d connections, want 1", n)
			}
		})
	}
	t.Run("get, post and decide", func(t *testing.T) {
		srv, conns := hopServer(t, "", func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/decide" {
				answerDecide(w, r)
				return
			}
			fmt.Fprintln(w, `{}`)
		})
		cl := NewClient(nil, ClientConfig{})
		ctx := context.Background()
		for range 3 {
			if err := cl.GetJSON(ctx, srv.URL+"/healthz", &struct{}{}); err != nil {
				t.Fatal(err)
			}
			if err := cl.PostJSON(ctx, srv.URL+"/v1/drain", nil, nil); err != nil {
				t.Fatal(err)
			}
			decideOK(t, cl, srv.URL, hopTasks(2))
		}
		if n := conns.Load(); n != 1 {
			t.Fatalf("gets, posts and decides to one server opened %d connections, want 1", n)
		}
	})
}

// rawServer answers every request on a loopback port with answer, byte for
// byte, its parts written apart with a pause between them, hanging up after
// each answer when hangUp is set; it counts the connections it accepts.
func rawServer(t *testing.T, hangUp bool, answer ...string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, req.Body)
					for i, part := range answer {
						if i > 0 {
							time.Sleep(20 * time.Millisecond)
						}
						if _, err := io.WriteString(nc, part); err != nil {
							return
						}
					}
					if hangUp {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), &conns
}

// TestJSONAnswerParity: GetJSON and PostJSON read the answers the decide
// hop reads, in the plain shape Server writes — a Connection: close, a
// 503 — decode each, and keep the connection exactly when the answer
// allows it. An answer in another shape — chunked, HTTP/1.0 read to EOF, a
// 204 without a Content-Length, a head past the connection's buffer —
// fails with errAnswerShape and its connection is closed.
func TestJSONAnswerParity(t *testing.T) {
	const ok = "{\"ok\":true}\n"
	for _, tc := range []struct {
		name   string
		answer string
		hangUp bool
		conns  int64 // dialled for three exchanges
		body   bool  // the answer is {"ok":true}
		status int   // the HTTPError's status; 0: none
		shape  bool  // the answer fails with errAnswerShape
	}{
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"ok\"\r\n7\r\n:true}\n\r\n0\r\n\r\n", false, 3, false, 0, true},
		{"connection close", "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 12\r\n\r\n" + ok, true, 3, true, 0, false},
		{"HTTP/1.0", "HTTP/1.0 200 OK\r\n\r\n" + ok, true, 3, false, 0, true},
		{"204", "HTTP/1.1 204 No Content\r\n\r\n", false, 3, false, 0, true},
		{"head past the buffer", "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("x", 4096) + "\r\nContent-Length: 12\r\n\r\n" + ok, false, 3, false, 0, true},
		{"503", "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 21\r\n\r\n{\"error\":\"draining\"}\n", false, 1, false, http.StatusServiceUnavailable, false},
	} {
		for _, post := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s post=%v", tc.name, post), func(t *testing.T) {
				base, conns := rawServer(t, tc.hangUp, tc.answer)
				cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second})
				defer cl.CloseIdle()
				u := base + "/v1/x"
				for range 3 {
					var got struct {
						OK bool `json:"ok"`
					}
					var out any
					if tc.body {
						out = &got
					}
					var err error
					if post {
						err = cl.PostJSON(context.Background(), u, nil, out)
					} else {
						err = cl.GetJSON(context.Background(), u, out)
					}
					var he *HTTPError
					switch {
					case tc.shape:
						if !errors.Is(err, errAnswerShape) {
							t.Fatalf("err = %v, want %v", err, errAnswerShape)
						}
					case tc.status != 0:
						want := HTTPError{Status: tc.status, URL: u, Msg: "draining", RetryAfter: 2 * time.Second}
						if !errors.As(err, &he) || *he != want {
							t.Fatalf("err = %v, want %+v", err, want)
						}
					case err != nil:
						t.Fatal(err)
					case got.OK != tc.body:
						t.Fatalf("decoded ok=%v, want %v", got.OK, tc.body)
					}
				}
				if n := conns.Load(); n != tc.conns {
					t.Fatalf("three exchanges dialled %d connections, want %d", n, tc.conns)
				}
			})
		}
	}
}

// TestAnswerHeadAcrossReads: an answer whose head arrives in two reads —
// the status line, a pause, then the rest — is read in place by a decide
// and by a JSON exchange alike, and the connection carries them all.
func TestAnswerHeadAcrossReads(t *testing.T) {
	const body = `{"now":7,"decisions":[{"id":"hop-0","action":"map","seq":0}]}`
	base, conns := rawServer(t, false, "HTTP/1.1 200 OK\r\n",
		fmt.Sprintf("Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	cl := NewClient(nil, ClientConfig{Timeout: 5 * time.Second})
	defer cl.CloseIdle()
	ctx := context.Background()
	for range 2 {
		decideOK(t, cl, base, hopTasks(1))
		var got struct{ Now int }
		if err := cl.GetJSON(ctx, base+"/v1/x", &got); err != nil || got.Now != 7 {
			t.Fatalf("GetJSON: now %d, %v; want 7", got.Now, err)
		}
		if err := cl.PostJSON(ctx, base+"/v1/x", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("six exchanges dialled %d connections, want 1", n)
	}
}

// TestClientReadsHeadRejectInOneAttempt: service.Server answers a request
// head past its bound with a 431 the hop reads, so a GetJSON returns an
// *HTTPError 431, and a PostJSON with a retry budget does so from one
// attempt: a 4xx is final, where an answer of a shape the hop does not read
// would be a transport error PostJSON retries.
func TestClientReadsHeadRejectInOneAttempt(t *testing.T) {
	srv := serveLoopback(t, NewHandler(newTestController(t)))
	cl := NewClient(nil, ClientConfig{Retries: 3, Backoff: time.Millisecond})
	long := srv.URL + "/" + strings.Repeat("a", 1<<20+8192)
	for _, get := range []bool{true, false} {
		before := cl.Attempts()
		var err error
		if get {
			err = cl.GetJSON(context.Background(), long, nil)
		} else {
			err = cl.PostJSON(context.Background(), long, nil, nil)
		}
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("get %v: err = %.200v, want an *HTTPError 431", get, err)
		}
		if n := cl.Attempts() - before; n != 1 {
			t.Fatalf("get %v: %d attempts, want 1", get, n)
		}
	}
}
