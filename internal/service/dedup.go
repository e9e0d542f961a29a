package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/varint"
)

// DedupWindow is the serve-side half of idempotent decision IDs: a bounded
// map from decision ID to the response the server first acknowledged under
// that ID, in the compact form appendAnswer writes. A retried request (same ID) replays the
// stored bytes instead of re-feeding the engine, which is what makes
// at-least-once delivery through the router tier safe — a timeout whose
// request actually committed cannot double-admit.
//
// Entries move through three states:
//
//   - in-flight: the first request with the ID owns execution; concurrent
//     duplicates block on the entry until the owner commits or fails. The
//     channel they block on is made when the first of them arrives, so an
//     ID no duplicate asks for costs none.
//   - committed: the response bytes are stored; duplicates replay them.
//     Committed entries are evicted FIFO once the window exceeds its
//     capacity (a retry older than the window re-executes — by then the
//     journal already holds the original, and the client gave up long ago).
//   - poisoned: the ID's request took effect in part — it failed after
//     some of its sub-batches committed — so neither replaying nor
//     re-executing is safe; duplicates get a permanent error (409), and the entry is
//     evicted FIFO like a committed one.
type DedupWindow struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*dedupEntry
	// order is the FIFO eviction queue of committed/poisoned IDs: it grows
	// to cap, then is a ring whose oldest ID is at next.
	order []string
	next  int
	hits  int64
}

// dedupEntry is one decision ID's lifecycle. settled is set, under the
// window's lock, when the entry leaves the in-flight state; data/n/err are
// immutable afterwards. done, made for the first duplicate that finds the
// entry in flight, is closed when it settles.
type dedupEntry struct {
	settled bool
	done    chan struct{}
	data    []byte // stored response bytes (committed entries)
	n       int    // task count of the original request
	err     error  // permanent failure (poisoned entries)
}

// errPartialCommit marks a decide that failed after at least one of its
// sub-batches committed (FanOut wraps it): the request took effect in part,
// so DecideHandler poisons its decision ID instead of releasing it.
var errPartialCommit = errors.New("some sub-batches committed before the failure")

// DefaultDedupWindow is the retained-response capacity of both tiers'
// windows: a documented constant, not a setting.
const DefaultDedupWindow = 4096

// NewDedupWindow builds a window retaining up to capacity committed
// responses.
func NewDedupWindow(capacity int) *DedupWindow {
	if capacity < 1 {
		capacity = DefaultDedupWindow
	}
	return &DedupWindow{cap: capacity, entries: make(map[string]*dedupEntry)}
}

// Begin claims an ID. The first caller becomes the owner (owner = true)
// and must finish with Commit or Fail; later callers get the existing
// entry to Await.
func (w *DedupWindow) Begin(id string) (e *dedupEntry, owner bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.entries[id]; ok {
		w.hits++
		if !e.settled && e.done == nil {
			e.done = make(chan struct{})
		}
		return e, false
	}
	e = new(dedupEntry)
	w.entries[id] = e
	return e, true
}

// Await blocks until the entry's owner resolved it, returning the stored
// response bytes and original task count, or the entry's permanent error.
// Only a caller Begin handed e as a duplicate may await it.
func (e *dedupEntry) Await(ctx context.Context) (data []byte, n int, err error) {
	if e.done != nil {
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	return e.data, e.n, e.err
}

// Commit stores the response bytes for the ID — its owner's acknowledged
// response, or one journal recovery re-derived before serving — and
// releases any waiting duplicates.
func (w *DedupWindow) Commit(id string, data []byte, n int) { w.settle(id, data, n, nil) }

// Fail abandons an in-flight ID after a clean error: the entry is removed
// so a retry re-executes (an errored Decide left no state behind), and
// waiting duplicates get the error once. Owner-only.
func (w *DedupWindow) Fail(id string, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[id]
	if !ok {
		return
	}
	delete(w.entries, id)
	e.err = err
	e.resolve()
}

// resolve marks e settled and releases its waiting duplicates. Callers
// hold the window's lock.
func (e *dedupEntry) resolve() {
	e.settled = true
	if e.done != nil {
		close(e.done)
	}
}

// Poison permanently fails an ID whose request took effect in part, so
// neither replaying nor re-executing it is safe: recovery found its
// journaled batch torn, or its owner failed after some of its sub-batches
// committed. An in-flight owner's entry resolves with the error; an absent
// ID is installed poisoned.
func (w *DedupWindow) Poison(id string, err error) {
	w.settle(id, nil, 0, fmt.Errorf("service: decision id %q: %w", id, err))
}

// settle resolves id — installing it if absent — with a response or a
// permanent error, releases its waiting duplicates and queues it for FIFO
// eviction. An ID already resolved keeps its first outcome.
func (w *DedupWindow) settle(id string, data []byte, n int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[id]
	if !ok {
		e = new(dedupEntry)
		w.entries[id] = e
	}
	if e.settled {
		return
	}
	e.data, e.n, e.err = data, n, err
	e.resolve()
	w.retain(id)
}

// retain enqueues a resolved ID for FIFO eviction, evicting the oldest
// once cap are queued. Callers hold w.mu.
func (w *DedupWindow) retain(id string) {
	if len(w.order) < w.cap {
		w.order = append(w.order, id)
		return
	}
	delete(w.entries, w.order[w.next])
	w.order[w.next] = id
	w.next = (w.next + 1) % w.cap
}

// Hits returns how many duplicate IDs were served from the window.
func (w *DedupWindow) Hits() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hits
}

// Len returns the number of retained entries (in-flight ones included).
func (w *DedupWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}

// A dedup window keeps each acknowledged answer as appendAnswer's compact
// form, under a fifth of its JSON: the machine names that fill most of the
// JSON are written once per answer, not once per decision. A duplicate's
// answer is rendered back through the encoder the original went through
// (readAnswer, then appendDecideResponse), so its bytes are the original's.
// The form: the clock; the answer's distinct action and machine-name
// strings, each once; then the decision count plus one (zero for a null
// list) and per decision its label, sequence number, action index, shard,
// backend, machine and name index.

// appendAnswer appends resp's compact form to buf.
func appendAnswer(buf []byte, resp *DecideResponse) []byte {
	var table [8]string // a partition's machines and the three actions fit
	strs := table[:0]
	for i := range resp.Decisions {
		d := &resp.Decisions[i]
		for _, s := range [...]string{string(d.Action), d.MachineName} {
			if !slices.Contains(strs, s) {
				strs = append(strs, s)
			}
		}
	}
	buf = binary.AppendVarint(buf, int64(resp.Now))
	buf = binary.AppendUvarint(buf, uint64(len(strs)))
	for _, s := range strs {
		buf = appendBytes(buf, s)
	}
	if resp.Decisions == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.Decisions))+1)
	for i := range resp.Decisions {
		d := &resp.Decisions[i]
		buf = appendBytes(buf, d.ID)
		for _, n := range [...]int{d.Seq, d.Shard, d.Backend, d.Machine} {
			buf = binary.AppendVarint(buf, int64(n))
		}
		buf = binary.AppendUvarint(buf, uint64(slices.Index(strs, string(d.Action))))
		buf = binary.AppendUvarint(buf, uint64(slices.Index(strs, d.MachineName)))
	}
	return buf
}

// appendBytes appends s with its length before it.
func appendBytes(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// readAnswer is appendAnswer's inverse: it decodes b into resp, reusing
// resp's Decisions storage.
func readAnswer(b []byte, resp *DecideResponse) error {
	r := varint.NewReader(b, "service: dedup answer")
	str := func() string { return string(r.Bytes(r.Count(r.Remaining(), 1))) }
	resp.Now = pmf.Tick(r.Varint())
	strs := make([]string, r.Count(r.Remaining(), 1))
	for i := range strs {
		strs[i] = str()
	}
	index := func() string {
		if i := r.Uvarint(); i < uint64(len(strs)) {
			return strs[i]
		}
		r.Failf("string index past its table of %d", len(strs))
		return ""
	}
	n := r.Uvarint()
	switch {
	case n == 0:
		resp.Decisions = nil
	case resp.Decisions == nil:
		resp.Decisions = []Decision{} // encoded as [], not null
	default:
		resp.Decisions = resp.Decisions[:0]
	}
	for range r.Bound(max(n, 1)-1, r.Remaining(), 1) {
		d := Decision{ID: str(), Seq: r.Int(), Shard: r.Int(), Backend: r.Int(), Machine: r.Int()}
		d.Action, d.MachineName = Action(index()), index()
		resp.Decisions = append(resp.Decisions, d)
	}
	return r.Finish()
}
