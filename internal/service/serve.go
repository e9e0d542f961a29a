package service

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096 // net/http's bound on a request's head
	maxUnreadBody  = 256 << 10                         // the most of a body left unread that is discarded to keep the connection
	lingerDelay    = 500 * time.Millisecond            // half-open time after a close with request bytes unread
)

// Server serves an http.Handler over HTTP/1.1, the serve side of the
// decide hop and of every listener. Each connection's one goroutine loops:
// read a request, run the handler against a response buffered in the
// connection, write status line, headers and body with one Write. net/http's
// server starts a background reader per request; this starts no goroutine
// per request.
//
// A request is read one of two ways. A decide in the plain shape every
// client here sends — "POST /v1/decide HTTP/1.1", one Host, one
// Content-Length within maxDecideBody, no Transfer-Encoding or Expect, no
// folded or bare-LF line, the whole head already buffered — to a handler
// that mounts a Decider (MountDecide) is read in place (readDecideHead):
// its body goes into the connection's buffer and the Decider serves it from
// there, decoding into and encoding from storage the connection keeps, so
// such an exchange allocates only what outlives it. Every other request is
// read by http.ReadRequest on the connection's bufio.Reader, which stays the
// reference: FuzzDecideHead holds the in-place reader to it.
//
// As under net/http (TestServerMatchesNetHTTP), a connection closes after
// "Connection: close", HTTP/1.0, a body left over maxUnreadBody unread, a
// 431 past the header bound or a 400 for a malformed request (these two
// with a Content-Length, which net/http's lack);
// Expect: 100-continue is answered on the first body read; answers carry
// Date, formatted at most once a second, and, unless set, a sniffed
// Content-Type. A request's context ends
// with Shutdown's, not when the client hangs up: the answer is then lost,
// as the dedup window allows for. A handler's panic ends the process.
// TLS, HTTP/2, streamed responses and timeouts are not served.
type Server struct {
	handler atomic.Pointer[serverHandler]
	ctx     context.Context // every request's; Shutdown ends it
	cancel  context.CancelFunc
	mu      sync.Mutex
	ln      net.Listener
	closing bool
	conns   map[*serverConn]bool // each open connection: a request in flight?
	date    atomic.Pointer[dateValue]
}

// dateValue is a Date header value and the second it names.
type dateValue struct {
	unix int64
	text []byte
}

// dateOf is the Date value for now: http.TimeFormat, formatted at most
// once per second per Server.
func (s *Server) dateOf(now time.Time) []byte {
	unix := now.Unix()
	if d := s.date.Load(); d != nil && d.unix == unix {
		return d.text
	}
	d := &dateValue{unix: unix, text: now.UTC().AppendFormat(nil, http.TimeFormat)}
	s.date.Store(d)
	return d.text
}

// serverHandler is what a Server answers with: the handler and, when it
// mounts one, its decide route.
type serverHandler struct {
	h      http.Handler
	decide *Decider // nil: every request goes to h
}

// decideMux is a mux whose POST /v1/decide is a Decider (MountDecide).
type decideMux struct {
	*http.ServeMux
	decide *Decider
}

// MountDecide registers d as mux's POST /v1/decide and returns mux marked
// so that a Server serving it reads that route's plain requests in place
// (Server). Both tiers' handlers are built this way.
func MountDecide(mux *http.ServeMux, d *Decider) http.Handler {
	mux.Handle("POST /v1/decide", d)
	return &decideMux{ServeMux: mux, decide: d}
}

// NewServer returns a Server that answers every request with h.
func NewServer(h http.Handler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{ctx: ctx, cancel: cancel, conns: map[*serverConn]bool{}}
	s.SetHandler(h)
	return s
}

// SetHandler answers every request read from now on with h: hcserve
// listens before its controller is up and swaps its booting handler out.
func (s *Server) SetHandler(h http.Handler) {
	sh := &serverHandler{h: h}
	if m, ok := h.(*decideMux); ok {
		sh.decide = m.decide
	}
	s.handler.Store(sh)
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
		c := newServerConn(s, nc)
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
	out  []byte        // the answer as written
	in   []byte        // a decide body read in place
	dx   decideScratch // what a decide read in place decodes into and encodes from
}

func newServerConn(s *Server, nc net.Conn) *serverConn {
	c := &serverConn{s: s, nc: nc, head: io.LimitedReader{R: nc}, w: response{header: http.Header{}}}
	c.br = bufio.NewReader(&c.head)
	return c
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
	sh := c.s.handler.Load()
	if sh.decide != nil {
		buf, _ := c.br.Peek(c.br.Buffered())
		if h, n, ok := readDecideHead(buf); ok {
			return c.decide(sh.decide, h, n)
		}
	}
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
	sh.h.ServeHTTP(&c.w, req.WithContext(c.s.ctx))
	keep, linger := !req.Close, false
	if hasBody && !c.body.eof {
		if c.body.cont {
			keep = false // the client may yet send the body it offered
		} else if _, err := io.CopyN(io.Discard, c.body.rc, maxUnreadBody+1); err != io.EOF {
			keep, linger = false, err == nil
		}
	}
	keep = c.respond(keep && req.ProtoAtLeast(1, 1), req.Method == http.MethodHead)
	if linger {
		c.linger()
	}
	return keep
}

// decide serves a decide request whose head readDecideHead read from the
// buffer, n bytes long: it reads the body into the connection's buffer and
// has d serve it there. A body cut short is served as far as it came, as
// net/http's reader would hand it over, and the connection then closes.
func (c *serverConn) decide(d *Decider, h decideHead, n int) bool {
	c.br.Discard(n)
	c.head.N = 1 << 62
	start := time.Now()
	c.in = slices.Grow(c.in[:0], h.length)[:h.length]
	got, err := io.ReadFull(c.br, c.in)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	d.serve(c.s.ctx, &c.w, &c.dx, c.in[:got], err, start)
	return c.respond(!h.close && err == nil, false)
}

// decideHead is what a plain decide request's head says (readDecideHead).
type decideHead struct {
	host   []byte // the Host value; aliases the buffer read
	length int    // Content-Length
	close  bool   // Connection: close
}

// decideRequestLine is the one request line read in place.
const decideRequestLine = "POST /v1/decide HTTP/1.1\r\n"

// readDecideHead reads buf as the head of a decide request in the plain
// shape (Server) and returns what it says and its length in bytes, the
// blank line included. Anything else — another request line; a head not
// all in buf; a line not ended by CRLF; a folded line; a field name
// outside the token bytes or a value byte net/http refuses; a
// Transfer-Encoding or an Expect; no Host, an empty or a repeated one; no
// Content-Length, a repeated one, or one not all digits or over
// maxDecideBody; a Connection other than one close or keep-alive — is not
// ok and is left to http.ReadRequest. Whatever it accepts, http.ReadRequest
// reads the same way (FuzzDecideHead).
func readDecideHead(buf []byte) (h decideHead, n int, ok bool) {
	if !bytes.HasPrefix(buf, []byte(decideRequestLine)) {
		return h, 0, false
	}
	hosts, lengths, conns := 0, 0, 0
	n, ok = readFields(buf, len(decideRequestLine), func(name, value []byte) bool {
		switch {
		case asciiFold(name, "host"):
			hosts++
			h.host = value
		case asciiFold(name, "content-length"):
			lengths++
			var valid bool
			h.length, valid = contentLength(value)
			return valid
		case asciiFold(name, "connection"):
			conns++
			h.close = asciiFold(value, "close")
			return h.close || asciiFold(value, "keep-alive")
		case asciiFold(name, "transfer-encoding"), asciiFold(name, "expect"):
			return false
		}
		return true
	})
	ok = ok && hosts == 1 && len(h.host) > 0 && lengths == 1 && h.length <= maxDecideBody && conns <= 1
	return h, n, ok
}

// readFields reads the header lines of a head from buf[n:] up to the blank
// line that ends it, handing field each name and value, the value without
// the spaces and tabs around it, and returns the head's length in bytes,
// the blank line included. It is not ok — and the head is left to
// net/http's reader — when a line is not all in buf or not ended by CRLF,
// a line is folded, a name holds a byte outside the token bytes or a value
// a byte net/http refuses, or field returns false.
func readFields(buf []byte, n int, field func(name, value []byte) bool) (int, bool) {
	for {
		end := bytes.IndexByte(buf[n:], '\n')
		if end < 1 || buf[n+end-1] != '\r' {
			return 0, false // not all buffered, or a bare LF
		}
		line := buf[n : n+end-1]
		n += end + 1
		if len(line) == 0 {
			return n, true
		}
		name, value, found := bytes.Cut(line, []byte(":"))
		if !found || len(name) == 0 || !all(name, isTokenByte) || !all(value, isFieldValueByte) ||
			!field(name, bytes.Trim(value, " \t")) {
			return 0, false
		}
	}
}

// contentLength reads a Content-Length value in place: 1 to 9 digits.
func contentLength(v []byte) (int, bool) {
	if len(v) == 0 || len(v) > 9 || !all(v, isDigit) {
		return 0, false
	}
	n := 0
	for _, c := range v {
		n = 10*n + int(c-'0')
	}
	return n, true
}

// all reports whether every byte of b passes is.
func all(b []byte, is func(byte) bool) bool {
	for _, c := range b {
		if !is(c) {
			return false
		}
	}
	return true
}

// isTokenByte reports whether c may appear in a field name (RFC 9110 tchar).
func isTokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c) || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// isFieldValueByte reports whether c may appear in a field value as
// net/http reads one: visible ASCII, space, tab and obs-text.
func isFieldValueByte(c byte) bool { return c == '\t' || c >= ' ' && c != 0x7f }

// asciiFold reports whether b is lower, ASCII letters compared without case.
func asciiFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// respond writes the handler's answer, without its body when head (a HEAD
// request), with one Write and reports whether the connection stays open:
// keep, unless the answer closes it.
func (c *serverConn) respond(keep, head bool) bool {
	w := &c.w
	w.WriteHeader(http.StatusOK)
	h, body := w.header, w.body
	keep = keep && h.Get("Connection") != "close"
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
		b = append(append(append(b, "Date: "...), c.s.dateOf(time.Now())...), "\r\n"...)
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
	if !head {
		b = append(b, body...)
	}
	_, err := c.nc.Write(b)
	clear(h)
	c.out, w.body, w.status = b[:0], w.body[:0], 0
	return keep && err == nil
}

// reject writes the plain-text answer net/http writes to a request it
// could not read, status in the status line and as the body, and a close.
// Unlike net/http's, it carries a Content-Length: the hop (Client) reads
// no close-delimited answer, so it reads this one as the status it is.
func (c *serverConn) reject(status string) {
	io.WriteString(c.nc, "HTTP/1.1 "+status+"\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: "+strconv.Itoa(len(status))+"\r\nConnection: close\r\n\r\n"+status)
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
