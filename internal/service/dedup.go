package service

import (
	"context"
	"fmt"
	"sync"
)

// DedupWindow is the serve-side half of idempotent decision IDs: a bounded
// map from decision ID to the byte-exact response the server first
// acknowledged under that ID. A retried request (same ID) replays the
// stored bytes instead of re-feeding the engine, which is what makes
// at-least-once delivery through the router tier safe — a timeout whose
// request actually committed cannot double-admit.
//
// Entries move through three states:
//
//   - in-flight: the first request with the ID owns execution; concurrent
//     duplicates block on the entry until the owner commits or fails.
//   - committed: the response bytes are stored; duplicates replay them.
//     Committed entries are evicted FIFO once the window exceeds its
//     capacity (a retry older than the window re-executes — by then the
//     journal already holds the original, and the client gave up long ago).
//   - poisoned: recovery found the ID's journaled batch torn by a crash
//     (some arrivals re-applied, the rest lost), so neither replaying nor
//     re-executing is safe; duplicates get a permanent error.
type DedupWindow struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*dedupEntry
	// order is the FIFO eviction queue of committed/poisoned IDs.
	order []string
	hits  int64
}

// dedupEntry is one decision ID's lifecycle. done is closed when the entry
// leaves the in-flight state; data/n/err are immutable afterwards.
type dedupEntry struct {
	done chan struct{}
	data []byte // stored response bytes (committed entries)
	n    int    // task count of the original request
	err  error  // permanent failure (poisoned entries)
}

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
		return e, false
	}
	e = &dedupEntry{done: make(chan struct{})}
	w.entries[id] = e
	return e, true
}

// Await blocks until the entry's owner resolved it, returning the stored
// response bytes and original task count, or the entry's permanent error.
func (e *dedupEntry) Await(ctx context.Context) (data []byte, n int, err error) {
	select {
	case <-e.done:
		return e.data, e.n, e.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// Commit stores the acknowledged response bytes for the ID and releases
// any waiting duplicates. Owner-only.
func (w *DedupWindow) Commit(id string, data []byte, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[id]
	if !ok {
		return
	}
	e.data, e.n = data, n
	close(e.done)
	w.retain(id)
}

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
	close(e.done)
}

// Seed installs a recovered response — journal recovery re-deriving the
// decisions of a fully-journaled batch. Pre-serving only; not
// concurrency-safe with live traffic.
func (w *DedupWindow) Seed(id string, data []byte, n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.entries[id]; ok {
		return
	}
	e := &dedupEntry{done: make(chan struct{}), data: data, n: n}
	close(e.done)
	w.entries[id] = e
	w.retain(id)
}

// Poison permanently fails an ID — recovery found its journaled batch
// torn, so a retry must not re-execute. Pre-serving only.
func (w *DedupWindow) Poison(id string, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.entries[id]; ok {
		return
	}
	e := &dedupEntry{done: make(chan struct{}), err: fmt.Errorf("service: decision id %q: %w", id, err)}
	close(e.done)
	w.entries[id] = e
	w.retain(id)
}

// retain enqueues a resolved ID for FIFO eviction and evicts past
// capacity. Callers hold w.mu.
func (w *DedupWindow) retain(id string) {
	w.order = append(w.order, id)
	for len(w.order) > w.cap {
		old := w.order[0]
		w.order = w.order[1:]
		delete(w.entries, old)
	}
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
