package service

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// The decide hop: Client.Decide's HTTP/1.1 exchange, run on the caller's
// goroutine over keep-alive connections the Client owns, one idle list per
// decide endpoint. An attempt takes the most recent idle connection that is
// still open (conn.open) or dials one, writes the request line, headers and
// codec body with one Write, and reads the answer with http.ReadResponse on
// the connection's own bufio.Reader. The connection goes back to the idle
// list once its answer was read to EOF and did not ask to close; the list
// is thus bounded by the peak number of exchanges in flight. The attempt's
// timeout is the connection's deadline, and a cancelled context moves that
// deadline into the past. A connection that fails is closed, and every
// idle connection to the endpoint with it.

// A DecideCall is one decide exchange begun by Client.StartDecide: the
// request of its first attempt written, the answer not yet read. Wait
// finishes it.
type DecideCall struct {
	cl    *Client
	ctx   context.Context
	ep    *endpoint
	id    string
	tasks []TaskSpec
	idxs  []int
	dst   []Decision
	// written: a request of this exchange reached a connection whole.
	written bool
	// The attempt in flight: its connection (nil when the attempt failed
	// before its read, with err) and the hook that moves the connection's
	// deadline into the past when ctx ends.
	c    *conn
	err  error
	stop func() bool
}

// endpoint is one decide URL and its idle connections.
type endpoint struct {
	addr string // host:port to dial
	url  string // the decide URL, for errors
	// head is the request line and headers up to the Content-Length value.
	head string

	mu   sync.Mutex
	idle []*conn
}

// conn is one keep-alive connection of the decide hop.
type conn struct {
	nc net.Conn
	br *bufio.Reader
	// buf holds the request's bytes, then the answer's body.
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
	dc := DecideCall{cl: cl, ctx: ctx, id: id, tasks: tasks, idxs: idxs, dst: dst}
	if dc.ep, dc.err = cl.endpoint(base); dc.err == nil {
		dc.send()
	}
	return dc
}

// Wait reads the answer to the exchange's request and decodes it, retrying
// per the client's config; it returns what Decide returns.
func (dc *DecideCall) Wait() (now pmf.Tick, n int, err error) {
	for attempt := 0; ; attempt++ {
		now, n, err = dc.recv()
		if err == nil || dc.ep == nil || attempt >= dc.cl.cfg.Retries || !retryable(err) ||
			(dc.id == "" && dc.written) || !dc.cl.pause(dc.ctx, attempt, err) {
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
	c, err := dc.ep.get(dc.ctx, deadline)
	if err != nil {
		dc.err = dc.fail(nil, err)
		return
	}
	if dc.ctx.Done() != nil {
		dc.stop = context.AfterFunc(dc.ctx, c.expire)
	}
	off := 0
	c.buf, off = dc.ep.request(c.buf, dc.id, dc.tasks, dc.idxs)
	if _, err := c.nc.Write(c.buf[off:]); err != nil {
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
	if resp.StatusCode/100 != 2 {
		err = dc.cl.statusError(resp, dc.ep.url, bytes.NewReader(c.buf))
	} else {
		n, err = decodeDecideResponse(c.buf, &now, dc.slot)
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
	dc.ep.mu.Lock()
	dc.ep.idle = append(dc.ep.idle, c)
	dc.ep.mu.Unlock()
}

// fail ends the attempt on c (nil: it had no connection) with err. A
// connection that failed is closed, and the endpoint's idle ones with it: a
// restarted or dead server left them all behind. The error is ctx's when
// ctx ended, as a transport failure (retryable).
func (dc *DecideCall) fail(c *conn, err error) error {
	if dc.stop != nil {
		dc.stop()
		dc.stop = nil
	}
	if c != nil {
		c.nc.Close()
		dc.ep.closeIdle()
	}
	if ctxErr := dc.ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	return &url.Error{Op: "Post", URL: dc.ep.url, Err: err}
}

// endpoint returns base's decide endpoint, registering it on first use.
func (cl *Client) endpoint(base string) (*endpoint, error) {
	cl.mu.RLock()
	ep := cl.endpoints[base]
	cl.mu.RUnlock()
	if ep != nil {
		return ep, nil
	}
	u, err := url.Parse(base + "/v1/decide")
	if err != nil {
		return nil, fmt.Errorf("service: decide endpoint %q: %v", base, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("service: decide endpoint %q: want http://host[:port]", base)
	}
	ep = &endpoint{
		addr: u.Host,
		url:  u.String(),
		head: "POST " + u.RequestURI() + " HTTP/1.1\r\nHost: " + u.Host + "\r\nContent-Type: application/json\r\nContent-Length: ",
	}
	if u.Port() == "" {
		ep.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if prior := cl.endpoints[base]; prior != nil {
		return prior, nil
	}
	cl.endpoints[base] = ep
	return ep, nil
}

// CloseIdle closes the decide hop's idle connections.
func (cl *Client) CloseIdle() {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	for _, ep := range cl.endpoints {
		ep.closeIdle()
	}
}

// get hands out the most recent idle connection if it is still open, or
// dials one, under the attempt's deadline (zero: none).
func (ep *endpoint) get(ctx context.Context, deadline time.Time) (*conn, error) {
	ep.mu.Lock()
	var c *conn
	if n := len(ep.idle); n > 0 {
		c, ep.idle[n-1], ep.idle = ep.idle[n-1], nil, ep.idle[:n-1]
	}
	ep.mu.Unlock()
	if c != nil {
		// The deadline first: the peek fails on one that passed while idle.
		if c.nc.SetDeadline(deadline) == nil && c.open() {
			return c, nil
		}
		c.nc.Close()
		ep.closeIdle()
	}
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", ep.addr)
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

// closeIdle closes the endpoint's idle connections.
func (ep *endpoint) closeIdle() {
	ep.mu.Lock()
	idle := ep.idle
	ep.idle = nil
	ep.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

// request builds an attempt's request in buf and returns it with the offset
// it starts at: the codec encodes the body after room left for the request
// line and headers, which are then written right-aligned against it, so the
// body is encoded in place and the request leaves in one Write.
func (ep *endpoint) request(buf []byte, id string, tasks []TaskSpec, idxs []int) ([]byte, int) {
	slots := len(tasks)
	if idxs != nil {
		slots = len(idxs)
	}
	room := len(ep.head) + 24 // the Content-Length value and the blank line
	buf = slices.Grow(buf[:0], room+128*slots+64)[:room]
	buf = appendDecideRequest(buf, id, tasks, idxs)
	var tail [24]byte
	t := append(strconv.AppendInt(tail[:0], int64(len(buf)-room), 10), "\r\n\r\n"...)
	off := room - len(t) - len(ep.head)
	copy(buf[off:], ep.head)
	copy(buf[room-len(t):], t)
	return buf, off
}
