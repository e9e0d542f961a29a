package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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
// one Write, and reads the answer with http.ReadResponse on the
// connection's own bufio.Reader. No redirect is followed: a 3xx is an
// HTTPError like any other non-2xx answer. The connection goes back to the
// idle list once its answer was read to EOF and did not ask to close; the
// list is thus bounded by the peak number of exchanges in flight. The
// attempt's timeout is the connection's deadline, and a cancelled context
// moves that deadline into the past. A connection that fails is closed,
// and every idle connection to the origin with it.

// A DecideCall is one exchange: a decide begun by Client.StartDecide, the
// request of its first attempt written and the answer not yet read, or a
// JSON request (Client.exchange). Wait finishes it.
type DecideCall struct {
	cl    *Client
	ctx   context.Context
	o     *origin
	id    string
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
	// The attempt in flight: its connection (nil when the attempt failed
	// before its read, with err) and the hook that moves the connection's
	// deadline into the past when ctx ends.
	c    *conn
	err  error
	stop func() bool
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
	// expire moves the deadline into the past: the hook an attempt hands
	// context.AfterFunc, made once per connection.
	expire func()
	peek   peeker
}

// Decide posts one decide request to base's /v1/decide — under decision ID
// id (empty: none), the tasks idxs selects from tasks (nil: all of them),
// encoded by the decide codec — retrying per the client's config, and
// decodes the answer in place: decision j lands in dst[idxs[j]] (dst[j]
// when idxs is nil), decisions past those slots are read and dropped. It
// returns the server's clock and how many decisions it answered, which the
// caller holds against the tasks it sent.
//
// A request without a decision ID reaches the server at most once: once
// one attempt's request was written whole, a failure is final whatever the
// retry budget, because a second copy would be admitted again.
func (cl *Client) Decide(ctx context.Context, base, id string, tasks []TaskSpec, idxs []int, dst []Decision) (now pmf.Tick, n int, err error) {
	dc := cl.StartDecide(ctx, base, id, tasks, idxs, dst)
	return dc.Wait()
}

// StartDecide begins Decide: it writes the first attempt's request and
// reads nothing, so a caller can start exchanges with several backends
// before it waits on the first. Wait finishes the exchange; until then the
// call holds a connection, and tasks and dst must stay as they are.
func (cl *Client) StartDecide(ctx context.Context, base, id string, tasks []TaskSpec, idxs []int, dst []Decision) DecideCall {
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
			(dc.req == nil && dc.id == "" && dc.written) || !dc.cl.pause(dc.ctx, attempt, err) {
			return now, n, err
		}
		dc.send()
	}
}

// send makes an attempt: it takes a connection and writes the request.
func (dc *DecideCall) send() {
	dc.cl.attempts.Add(1)
	if err := dc.ctx.Err(); err != nil {
		dc.err = dc.fail(nil, err)
		return
	}
	var deadline time.Time
	if t := dc.cl.cfg.Timeout; t > 0 {
		deadline = time.Now().Add(t)
	}
	c, err := dc.o.get(dc.ctx, deadline)
	if err != nil {
		dc.err = dc.fail(nil, err)
		return
	}
	if dc.ctx.Done() != nil {
		dc.stop = context.AfterFunc(dc.ctx, c.expire)
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
	resp, err := http.ReadResponse(c.br, nil)
	if err == nil {
		c.buf, err = readBody(c.buf, resp.Body, resp.ContentLength)
		resp.Body.Close()
	}
	if err != nil {
		return 0, 0, dc.fail(c, err)
	}
	switch {
	case resp.StatusCode/100 != 2:
		err = dc.cl.statusError(resp, dc.url, c.buf)
	case dc.req == nil:
		n, err = decodeDecideResponse(c.buf, &now, dc.slot)
	case dc.out != nil:
		err = json.Unmarshal(c.buf, dc.out)
	}
	// The body was read to EOF, so the connection is at a response boundary.
	dc.release(c, !resp.Close)
	return now, n, err
}

// slot is where the answer's decision j lands.
func (dc *DecideCall) slot(j int) *Decision {
	switch {
	case dc.idxs != nil && j < len(dc.idxs):
		return &dc.dst[dc.idxs[j]]
	case dc.idxs == nil && j < len(dc.dst):
		return &dc.dst[j]
	}
	return new(Decision)
}

// release ends the attempt on c, which carried a whole exchange: c goes
// back to the idle list when reuse holds and ctx left its deadline alone.
func (dc *DecideCall) release(c *conn, reuse bool) {
	if dc.stop != nil && !dc.stop() {
		reuse = false
	}
	dc.stop = nil
	if !reuse {
		c.nc.Close()
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
	if dc.stop != nil {
		dc.stop()
		dc.stop = nil
	}
	if c != nil {
		c.nc.Close()
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
		// The deadline first: the peek fails on one that passed while idle.
		if c.nc.SetDeadline(deadline) == nil && c.open() {
			return c, nil
		}
		c.nc.Close()
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
	c.expire = func() { c.nc.SetDeadline(time.Unix(1, 0)) }
	return c, nil
}

// closeIdle closes the origin's idle connections.
func (o *origin) closeIdle() {
	o.mu.Lock()
	idle := o.idle
	o.idle = nil
	o.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// request builds a decide attempt's request in buf and returns it with the
// offset it starts at: the codec encodes the body after room left for the
// request line and headers, which are then written right-aligned against
// it, so the body is encoded in place and the request leaves in one Write.
func (o *origin) request(buf []byte, id string, tasks []TaskSpec, idxs []int) ([]byte, int) {
	slots := len(tasks)
	if idxs != nil {
		slots = len(idxs)
	}
	room := len(o.head) + 24 // the Content-Length value and the blank line
	buf = slices.Grow(buf[:0], room+128*slots+64)[:room]
	buf = appendDecideRequest(buf, id, tasks, idxs)
	var tail [24]byte
	t := append(strconv.AppendInt(tail[:0], int64(len(buf)-room), 10), "\r\n\r\n"...)
	off := room - len(t) - len(o.head)
	copy(buf[off:], o.head)
	copy(buf[room-len(t):], t)
	return buf, off
}
