package service

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096 // net/http's bound on a request's head
	maxUnreadBody  = 256 << 10                         // the most of a body left unread that is discarded to keep the connection
	lingerDelay    = 500 * time.Millisecond            // half-open time after a close with request bytes unread
)

// Server serves an http.Handler over HTTP/1.1, the serve side of the
// decide hop and of every listener. Each connection's one goroutine loops:
// read a request with http.ReadRequest on the connection's bufio.Reader,
// run the handler against a response buffered in the connection, write
// status line, headers and body with one Write. net/http's server starts
// a background reader per request; this starts no goroutine per request.
//
// As under net/http (TestServerMatchesNetHTTP), a connection closes after
// "Connection: close", HTTP/1.0, a body left over maxUnreadBody unread, a
// 431 past the header bound or a 400 for a malformed request;
// Expect: 100-continue is answered on the first body read; answers carry
// Date and, unless set, a sniffed Content-Type. A request's context ends
// with Shutdown's, not when the client hangs up: the answer is then lost,
// as the dedup window allows for. A handler's panic ends the process.
// TLS, HTTP/2, streamed responses and timeouts are not served.
type Server struct {
	handler http.Handler
	ctx     context.Context // every request's; Shutdown ends it
	cancel  context.CancelFunc
	mu      sync.Mutex
	ln      net.Listener
	closing bool
	conns   map[*serverConn]bool // each open connection: a request in flight?
}

// NewServer returns a Server that answers every request with h.
func NewServer(h http.Handler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{handler: h, ctx: ctx, cancel: cancel, conns: map[*serverConn]bool{}}
}

// Serve accepts connections on ln until Shutdown closes it, then returns
// http.ErrServerClosed; another accept failure, not temporary, it returns.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	if s.closing {
		ln.Close()
	}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
			time.Sleep(10 * time.Millisecond) // out of file descriptors: back off
			continue
		} else if errors.Is(err, net.ErrClosed) {
			return http.ErrServerClosed
		} else if err != nil {
			ln.Close()
			return err
		}
		c := &serverConn{s: s, nc: nc, head: io.LimitedReader{R: nc}, w: response{header: http.Header{}}}
		c.br = bufio.NewReader(&c.head)
		if !s.track(c, false) {
			nc.Close()
			return http.ErrServerClosed
		}
		go c.serve()
	}
}

// Shutdown closes the listener and the idle connections at once, then waits
// until the requests in flight are answered. If ctx ends first, so does
// every request's context, and Shutdown returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	defer s.cancel()
	defer context.AfterFunc(ctx, s.cancel)()
	s.mu.Lock()
	s.closing = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c, busy := range s.conns {
		if !busy {
			c.nc.Close()
		}
	}
	s.mu.Unlock()
	for poll := time.Millisecond; ; poll = min(2*poll, 100*time.Millisecond) {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

// track records whether a request is in flight on c, or refuses once
// Shutdown has begun; the caller then closes c.
func (s *Server) track(c *serverConn, busy bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closing {
		s.conns[c] = busy
	}
	return !s.closing
}

// serverConn is one accepted connection and what its requests reuse.
type serverConn struct {
	s    *Server
	nc   net.Conn
	head io.LimitedReader // nc under the header bound while a request's head is read
	br   *bufio.Reader
	body requestBody
	w    response
	out  []byte // the answer as written
}

// serve runs the connection's request loop, then closes it.
func (c *serverConn) serve() {
	for {
		// Idle until the next request's first byte; the header bound counts it.
		c.head.N = maxHeaderBytes
		if _, err := c.br.Peek(1); err != nil || !c.s.track(c, true) || !c.exchange() || !c.s.track(c, false) {
			break
		}
	}
	c.nc.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

// exchange reads a request, runs the handler and writes the answer. It
// reports whether the connection may carry another request.
func (c *serverConn) exchange() bool {
	req, err := http.ReadRequest(c.br)
	var ne net.Error
	switch {
	case err != nil && c.head.N <= 0:
		c.reject("431 Request Header Fields Too Large")
		c.linger()
		return false
	case err == io.EOF, errors.As(err, &ne):
		return false // the client left, or the connection failed
	case err != nil, req.ProtoMajor != 1, req.ProtoAtLeast(1, 1) && req.Host == "":
		c.reject("400 Bad Request")
		return false
	}
	c.head.N = 1 << 62 // the body is the handler's to bound
	hasBody := req.Body != http.NoBody
	if hasBody {
		cont := req.ProtoAtLeast(1, 1) && req.ContentLength != 0 && strings.EqualFold(req.Header.Get("Expect"), "100-continue")
		c.body = requestBody{c: c, rc: req.Body, cont: cont}
		req.Body = &c.body
	}
	c.s.handler.ServeHTTP(&c.w, req.WithContext(c.s.ctx))
	keep, linger := !req.Close, false
	if hasBody && !c.body.eof {
		if c.body.cont {
			keep = false // the client may yet send the body it offered
		} else if _, err := io.CopyN(io.Discard, c.body.rc, maxUnreadBody+1); err != io.EOF {
			keep, linger = false, err == nil
		}
	}
	keep = c.respond(req, keep)
	if linger {
		c.linger()
	}
	return keep
}

// respond writes the handler's answer with one Write and reports whether
// the connection stays open: keep, unless the answer closes it.
func (c *serverConn) respond(req *http.Request, keep bool) bool {
	w := &c.w
	w.WriteHeader(http.StatusOK)
	h, body := w.header, w.body
	keep = keep && req.ProtoAtLeast(1, 1) && h.Get("Connection") != "close"
	b := strconv.AppendInt(append(c.out[:0], "HTTP/1.1 "...), int64(w.status), 10)
	b = append(append(append(b, ' '), http.StatusText(w.status)...), "\r\n"...)
	for k, vs := range h {
		for _, v := range vs {
			if k != "Content-Length" && k != "Transfer-Encoding" {
				b = append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
			}
		}
	}
	if _, ok := h["Date"]; !ok {
		b = append(time.Now().UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat), "\r\n"...)
	}
	if status := w.status; status < 200 || status == http.StatusNoContent || status == http.StatusNotModified {
		body = nil
	} else {
		if _, ok := h["Content-Type"]; !ok && len(body) > 0 {
			b = append(append(append(b, "Content-Type: "...), http.DetectContentType(body)...), "\r\n"...)
		}
		b = append(strconv.AppendInt(append(b, "Content-Length: "...), int64(len(body)), 10), "\r\n"...)
	}
	if _, ok := h["Connection"]; !ok && !keep {
		b = append(b, "Connection: close\r\n"...)
	}
	b = append(b, "\r\n"...)
	if req.Method != http.MethodHead {
		b = append(b, body...)
	}
	_, err := c.nc.Write(b)
	clear(h)
	c.out, w.body, w.status = b[:0], w.body[:0], 0
	return keep && err == nil
}

// reject writes the plain-text answer net/http writes to a request it
// could not read, status in the status line and as the body, and a close.
func (c *serverConn) reject(status string) {
	io.WriteString(c.nc, "HTTP/1.1 "+status+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+status)
}

// linger half-closes the connection and waits lingerDelay before the close.
func (c *serverConn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	time.Sleep(lingerDelay)
}

// response is the connection's http.ResponseWriter: the status and headers
// the handler set and the body it wrote, held until the handler returns.
type response struct {
	header http.Header
	status int // 0: not yet set; only the first WriteHeader counts
	body   []byte
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) { w.status = cmp.Or(w.status, code) }

func (w *response) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// requestBody is a body as the handler reads it: the first read answers an
// Expect: 100-continue, and EOF is noted for the loop, which is left what
// Close leaves.
type requestBody struct {
	c    *serverConn
	rc   io.ReadCloser // http.ReadRequest's body
	cont bool          // a 100 Continue is owed
	eof  bool
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.cont {
		b.cont = false
		if _, err := io.WriteString(b.c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	n, err := b.rc.Read(p)
	b.eof = b.eof || err == io.EOF
	return n, err
}

func (b *requestBody) Close() error { return nil }
