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
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// The hop: every exchange a Client makes — Decide, PostJSON, GetJSON — is
// HTTP/1.1 run on the caller's goroutine over keep-alive connections the
// Client owns, one idle list per origin server (http://host:port). An
// attempt takes the most recent idle connection that is still open
// (conn.open) or dials one, writes the request line, headers and body with
// one Write, and reads the answer on the connection's own bufio.Reader.
//
// Every answer is read in place in the plain shape Server writes
// (readAnswerHead), its head peeked on across reads: its body goes into the
// connection's buffer and a decide's decisions into the caller's slots,
// sharing the request's task labels and the client's machine names where
// the bytes match, so such an exchange allocates nothing. An answer in any
// other shape, chunked or close-delimited say, fails the attempt with
// errAnswerShape and closes the connection, as a malformed answer does.
// http.ReadResponse is the reference FuzzDecideAnswerHead holds it to.
//
// No redirect is followed: a 3xx is an HTTPError like any other non-2xx
// answer. The connection goes back to the idle list once its answer was
// read whole and did not ask to close; the list is thus bounded by the peak
// number of exchanges in flight. The attempt's timeout is the connection's
// deadline, and the end of its context moves that deadline into the past,
// through a hook registered once per connection and context (conn.watch).
// A connection that fails is closed, and every idle connection to the
// origin with it.

// A DecideCall is one exchange: a decide begun by Client.StartDecide, the
// request of its first attempt written and the answer not yet read, or a
// JSON request (Client.exchange). Wait finishes it.
type DecideCall struct {
	cl    *Client
	ctx   context.Context
	o     *origin
	id    []byte
	tasks []TaskSpec
	idxs  []int
	dst   []Decision
	// A JSON exchange carries its whole request in req and decodes a 2xx
	// answer into out (nil: none); a decide (req nil) encodes its tasks.
	req []byte
	out any
	// op and url name the exchange in its transport errors; retries is its
	// retry budget.
	op, url string
	retries int
	// written: a request of this exchange reached a connection whole.
	written bool
	// The attempt in flight: its connection, nil when the attempt failed
	// before its read, with err.
	c   *conn
	err error
}

// origin is one server, http://host:port, and its idle connections.
type origin struct {
	addr   string // host:port to dial
	decide string // the decide URL, for errors
	// head is the decide request line and headers up to the Content-Length
	// value.
	head string

	mu   sync.Mutex
	idle []*conn
}

// conn is one keep-alive connection of the hop.
type conn struct {
	nc net.Conn
	br *bufio.Reader
	// buf holds a decide request's bytes, then the answer's body.
	buf []byte
	// The hook that moves the deadline into the past when a context ends
	// (watch): done is that context's end, unwatch undoes the hook, and the
	// hook acts only while gen, under mu, is the one it was registered
	// under.
	done    <-chan struct{}
	unwatch func() bool
	mu      sync.Mutex
	gen     uint64
	peek    peeker
}

// Decide posts one decide request to base's /v1/decide — under decision ID
// id (empty: none), the tasks idxs selects from tasks (nil: all of them),
// encoded by the decide codec — retrying per the client's config, and
// decodes the answer in place: decision j lands in dst[idxs[j]] (dst[j]
// when idxs is nil), decisions past those slots are read and dropped. A
// decision's label is its task's string when the two are equal, and its
// machine name the client's (ClientConfig.MachineNames). It returns the
// server's clock and how many decisions it answered, which the caller
// holds against the tasks it sent.
//
// A request without a decision ID reaches the server at most once: once
// one attempt's request was written whole, a failure is final whatever the
// retry budget, because a second copy would be admitted again.
func (cl *Client) Decide(ctx context.Context, base, id string, tasks []TaskSpec, idxs []int, dst []Decision) (now pmf.Tick, n int, err error) {
	dc := cl.StartDecide(ctx, base, []byte(id), tasks, idxs, dst)
	return dc.Wait()
}

// StartDecide begins Decide: it writes the first attempt's request and
// reads nothing, so a caller can start exchanges with several backends
// before it waits on the first. Wait finishes the exchange; until then the
// call holds a connection, and id, tasks and dst must stay as they are.
func (cl *Client) StartDecide(ctx context.Context, base string, id []byte, tasks []TaskSpec, idxs []int, dst []Decision) DecideCall {
	dc := DecideCall{cl: cl, ctx: ctx, id: id, tasks: tasks, idxs: idxs, dst: dst, op: "Post", retries: cl.cfg.Retries}
	if dc.o, dc.err = cl.origin(base); dc.err == nil {
		dc.url = dc.o.decide
		dc.send()
	}
	return dc
}

// exchange runs one JSON request, op ("Get" or "Post") to u with body
// encoded by encoding/json (nil: none), under retry budget retries, and
// decodes a 2xx answer into out (nil: the answer is read and dropped).
func (cl *Client) exchange(ctx context.Context, op, u string, body, out any, retries int) error {
	pu, err := url.Parse(u)
	if err != nil {
		return err
	}
	dc := DecideCall{cl: cl, ctx: ctx, out: out, op: op, url: u, retries: retries}
	if dc.o, err = cl.origin(pu.Scheme + "://" + pu.Host); err != nil {
		return err
	}
	var data []byte
	if body != nil {
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	dc.req = fmt.Appendf(nil, "%s %s HTTP/1.1\r\nHost: %s\r\n", strings.ToUpper(op), pu.RequestURI(), pu.Host)
	if op == "Post" {
		dc.req = fmt.Appendf(dc.req, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(data))
	}
	dc.req = append(append(dc.req, "\r\n"...), data...)
	dc.send()
	_, _, err = dc.Wait()
	return err
}

// Wait reads the answer to the exchange's request and decodes it, retrying
// within the exchange's budget; it returns what Decide returns.
func (dc *DecideCall) Wait() (now pmf.Tick, n int, err error) {
	for attempt := 0; ; attempt++ {
		now, n, err = dc.recv()
		if err == nil || dc.o == nil || attempt >= dc.retries || !retryable(err) ||
			(dc.req == nil && len(dc.id) == 0 && dc.written) || !dc.cl.pause(dc.ctx, attempt, err) {
			return now, n, err
		}
		dc.send()
	}
}

// send makes an attempt: it takes a connection and writes the request.
func (dc *DecideCall) send() {
	dc.cl.attempts.Add(1)
	var deadline time.Time
	if t := dc.cl.cfg.Timeout; t > 0 {
		deadline = time.Now().Add(t)
	}
	c, err := dc.o.get(dc.ctx, deadline)
	if err != nil {
		dc.err = dc.fail(nil, err)
		return
	}
	if err := dc.ctx.Err(); err != nil {
		// ctx ended, and its hook may have run before get set the deadline:
		// the connection carried nothing and goes back.
		dc.release(c, true)
		dc.err = dc.fail(nil, err)
		return
	}
	req := dc.req
	if req == nil {
		off := 0
		c.buf, off = dc.o.request(c.buf, dc.id, dc.tasks, dc.idxs)
		req = c.buf[off:]
	}
	if _, err := c.nc.Write(req); err != nil {
		dc.err = dc.fail(c, err)
		return
	}
	dc.c, dc.err, dc.written = c, nil, true
}

// recv reads and decodes the answer to the attempt send made.
func (dc *DecideCall) recv() (now pmf.Tick, n int, err error) {
	c := dc.c
	if c == nil {
		return 0, 0, dc.err
	}
	dc.c = nil
	h, err := c.readAnswer()
	if err != nil {
		return 0, 0, dc.fail(c, err)
	}
	switch {
	case h.status/100 != 2:
		err = dc.cl.statusError(h.status, h.retryAfter, dc.url, c.buf)
	case dc.req == nil:
		n, err = decodeDecideResponse(c.buf, &now, dc.cl.cfg.MachineNames, dc.slot)
	case dc.out != nil:
		err = json.Unmarshal(c.buf, dc.out)
	}
	// The body was read whole, so the connection is at an answer boundary.
	dc.release(c, !h.close)
	return now, n, err
}

// errAnswerShape fails an answer not in the plain shape (readAnswerHead).
var errAnswerShape = errors.New("service: answer not in the plain shape Server writes")

// readAnswer reads the answer to the request written on c: its head in
// place once the blank line that ends it is buffered (readAnswerHead), its
// body into c.buf.
func (c *conn) readAnswer() (h answerHead, err error) {
	for {
		buf, _ := c.br.Peek(c.br.Buffered())
		if h, n, ok := readAnswerHead(buf); ok {
			c.br.Discard(n)
			c.buf = slices.Grow(c.buf[:0], h.length)[:h.length]
			_, err := io.ReadFull(c.br, c.buf)
			return h, unexpected(err)
		}
		// A whole head is not plain; a part of one waits for more bytes.
		if bytes.Contains(buf, []byte("\n\r\n")) || bytes.Contains(buf, []byte("\n\n")) {
			return h, errAnswerShape
		} else if _, err := c.br.Peek(len(buf) + 1); err == bufio.ErrBufferFull {
			return h, errAnswerShape // a head past the buffer
		} else if err != nil {
			return h, unexpected(err)
		}
	}
}

// unexpected is err with an EOF before the answer was whole made
// io.ErrUnexpectedEOF, as net/http reports it.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// answerHead is what an answer's head says (readAnswerHead).
type answerHead struct {
	status     int
	length     int           // Content-Length
	close      bool          // Connection: close
	retryAfter time.Duration // the first Retry-After in whole seconds (retryAfterOf)
}

// answerStatusLine is how the one status line read in place begins.
const answerStatusLine = "HTTP/1.1 "

// readAnswerHead reads buf as the head of an answer in the plain shape
// Server writes and returns what it says and its length in bytes, the
// blank line included. Anything else — a status line not "HTTP/1.1", a
// space and a status of 200–599 other than 204 and 304 (whose bodies
// net/http reads as empty), then nothing or a space and a reason; a head
// not all in buf; a line not ended by CRLF; a folded line; a field name
// outside the token bytes or a value byte net/http refuses; a
// Transfer-Encoding; no Content-Length, a repeated one, or one not all
// digits or over maxDecideBody; a Connection other than one close or
// keep-alive — is not ok: readAnswer waits for the rest of a head not all
// in buf and fails any other with errAnswerShape. Whatever it accepts,
// http.ReadResponse reads the same way (FuzzDecideAnswerHead).
func readAnswerHead(buf []byte) (h answerHead, n int, ok bool) {
	end := bytes.IndexByte(buf, '\n')
	if end < 1 || buf[end-1] != '\r' {
		return h, 0, false
	}
	line, found := bytes.CutPrefix(buf[:end-1], []byte(answerStatusLine))
	if !found || len(line) < 3 || !all(line[:3], isDigit) || len(line) > 3 && line[3] != ' ' {
		return h, 0, false
	}
	h.status = 100*int(line[0]-'0') + 10*int(line[1]-'0') + int(line[2]-'0')
	if h.status < 200 || h.status > 599 || h.status == http.StatusNoContent || h.status == http.StatusNotModified {
		return h, 0, false
	}
	lengths, conns, retries := 0, 0, 0
	n, ok = readFields(buf, end+1, func(name, value []byte) bool {
		switch {
		case asciiFold(name, "content-length"):
			lengths++
			var valid bool
			h.length, valid = contentLength(value)
			return valid
		case asciiFold(name, "connection"):
			conns++
			h.close = asciiFold(value, "close")
			return h.close || asciiFold(value, "keep-alive")
		case asciiFold(name, "retry-after"):
			if retries++; retries == 1 {
				h.retryAfter = retryAfterOf(string(value))
			}
		case asciiFold(name, "transfer-encoding"):
			return false
		}
		return true
	})
	ok = ok && lengths == 1 && h.length <= maxDecideBody && conns <= 1
	return h, n, ok
}

// slot is where the answer's decision j lands, and the label its task
// carries, which the decision echoes.
func (dc *DecideCall) slot(j int) (*Decision, string) {
	i := j
	if dc.idxs != nil {
		if j >= len(dc.idxs) {
			return new(Decision), ""
		}
		i = dc.idxs[j]
	}
	if i >= len(dc.dst) {
		return new(Decision), ""
	}
	label := ""
	if i < len(dc.tasks) {
		label = dc.tasks[i].ID
	}
	return &dc.dst[i], label
}

// release ends the attempt on c, which carried a whole exchange: c goes
// back to the idle list when reuse holds.
func (dc *DecideCall) release(c *conn, reuse bool) {
	if !reuse {
		c.close()
		return
	}
	dc.o.mu.Lock()
	dc.o.idle = append(dc.o.idle, c)
	dc.o.mu.Unlock()
}

// fail ends the attempt on c (nil: it had no connection) with err. A
// connection that failed is closed, and the origin's idle ones with it: a
// restarted or dead server left them all behind. The error is ctx's when
// ctx ended, as a transport failure (retryable).
func (dc *DecideCall) fail(c *conn, err error) error {
	if c != nil {
		c.close()
		dc.o.closeIdle()
	}
	if ctxErr := dc.ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	return &url.Error{Op: dc.op, URL: dc.url, Err: err}
}

// origin returns the origin server base names, registering it on first
// use. base must be http://host[:port], with no path.
func (cl *Client) origin(base string) (*origin, error) {
	cl.mu.RLock()
	o := cl.origins[base]
	cl.mu.RUnlock()
	if o != nil {
		return o, nil
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" || base != "http://"+u.Host {
		return nil, fmt.Errorf("service: server %q: want http://host[:port]", base)
	}
	o = &origin{
		addr:   u.Host,
		decide: base + "/v1/decide",
		head:   "POST /v1/decide HTTP/1.1\r\nHost: " + u.Host + "\r\nContent-Type: application/json\r\nContent-Length: ",
	}
	if u.Port() == "" {
		o.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if prior := cl.origins[base]; prior != nil {
		return prior, nil
	}
	cl.origins[base] = o
	return o, nil
}

// CloseIdle closes the client's idle connections.
func (cl *Client) CloseIdle() {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	for _, o := range cl.origins {
		o.closeIdle()
	}
}

// get hands out the most recent idle connection if it is still open, or
// dials one, under the attempt's deadline (zero: none).
func (o *origin) get(ctx context.Context, deadline time.Time) (*conn, error) {
	o.mu.Lock()
	var c *conn
	if n := len(o.idle); n > 0 {
		c, o.idle[n-1], o.idle = o.idle[n-1], nil, o.idle[:n-1]
	}
	o.mu.Unlock()
	if c != nil {
		// The hook first, then the deadline: the peek fails on one that
		// passed while idle.
		c.watch(ctx)
		if c.nc.SetDeadline(deadline) == nil && c.open() {
			return c, nil
		}
		c.close()
		o.closeIdle()
	}
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", o.addr)
	if err != nil {
		return nil, err
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, err
	}
	c = &conn{nc: nc, br: bufio.NewReader(nc)}
	c.watch(ctx)
	return c, nil
}

// watch makes the end of ctx expire c — move its deadline into the past —
// unless c already watches a context that ends with ctx: the hook is
// registered once per connection and context, and stays while c sits idle.
// A hook of the context c watched before is undone, and should it be under
// way already, it finds its generation gone and leaves the deadline alone.
func (c *conn) watch(ctx context.Context) {
	done := ctx.Done()
	if done == c.done {
		return
	}
	if c.unwatch != nil {
		c.unwatch()
	}
	c.mu.Lock()
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.done, c.unwatch = done, nil
	if done != nil {
		c.unwatch = context.AfterFunc(ctx, func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.gen == gen {
				c.nc.SetDeadline(time.Unix(1, 0))
			}
		})
	}
}

// close closes c and undoes its hook.
func (c *conn) close() {
	if c.unwatch != nil {
		c.unwatch()
	}
	c.nc.Close()
}

// closeIdle closes the origin's idle connections.
func (o *origin) closeIdle() {
	o.mu.Lock()
	idle := o.idle
	o.idle = nil
	o.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// request builds a decide attempt's request in buf and returns it with the
// offset it starts at: the codec encodes the body after room left for the
// request line and headers, which are then written right-aligned against
// it, so the body is encoded in place and the request leaves in one Write.
func (o *origin) request(buf []byte, id []byte, tasks []TaskSpec, idxs []int) ([]byte, int) {
	slots := len(tasks)
	if idxs != nil {
		slots = len(idxs)
	}
	room := len(o.head) + 24 // the Content-Length value and the blank line
	buf = slices.Grow(buf[:0], room+128*slots+64)[:room]
	buf = appendDecideRequest(buf, string(id), tasks, idxs)
	var tail [24]byte
	t := append(strconv.AppendInt(tail[:0], int64(len(buf)-room), 10), "\r\n\r\n"...)
	off := room - len(t) - len(o.head)
	copy(buf[off:], o.head)
	copy(buf[room-len(t):], t)
	return buf, off
}
