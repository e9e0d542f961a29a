package front

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/service"
)

// backend is one shard-server process behind the router: its rotation
// state, its in-flight window and the ShardView the routing policy reads.
type backend struct {
	id  int
	url string
	// view carries the one bit routing reads: down — not ready, or every
	// shard of the backend has zero live machines. Down from New until the
	// first good poll; written by the poller and markDown, read lock-free.
	view *router.ShardView
	// ready gates rotation membership: set by the poller when /readyz
	// answers 200 ready, cleared by the poller or by a failed proxy.
	ready atomic.Bool
	// polled is set when the backend's first poll has finished, whatever
	// its outcome: the router is not ready until every backend has been
	// heard from (or given up on) once, so the first requests are routed
	// over the whole fleet rather than over whichever backend answered first.
	polled atomic.Bool
	// window holds one token per in-flight decide sub-request.
	window chan struct{}
	// proxied counts decide sub-requests sent to this backend.
	proxied atomic.Int64

	mu      sync.Mutex
	lastErr error
}

// tryAcquire claims an in-flight window slot without blocking.
func (b *backend) tryAcquire() bool {
	select {
	case b.window <- struct{}{}:
		return true
	default:
		return false
	}
}

func (b *backend) release() { <-b.window }

func (b *backend) inflight() int { return len(b.window) }

func (b *backend) setErr(err error) {
	b.mu.Lock()
	b.lastErr = err
	b.mu.Unlock()
}

func (b *backend) lastError() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastErr == nil {
		return ""
	}
	return b.lastErr.Error()
}

// poller drives one backend's rotation membership and routing view: every
// Poll it checks /readyz, and while the backend is ready it reads
// /v1/stats for whether the backend is degraded. Polling uses plain
// one-shot requests — a probe that fails should fail fast, not burn the
// client's retry budget.
func (f *Front) poller(b *backend) {
	defer f.pollWG.Done()
	probe := service.NewClient(nil, service.ClientConfig{Timeout: f.cfg.Timeout})
	tick := time.NewTicker(f.cfg.Poll)
	defer tick.Stop()
	for {
		f.pollOnce(b, probe)
		select {
		case <-f.stop:
			return
		case <-tick.C:
		}
	}
}

func (f *Front) pollOnce(b *backend, probe *service.Client) {
	defer b.polled.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
	defer cancel()

	var ready service.ReadyResponse
	if err := probe.GetJSON(ctx, b.url+"/readyz", &ready); err != nil || !ready.Ready {
		if err != nil {
			b.setErr(err)
		}
		b.view.SetDown(true)
		if b.ready.CompareAndSwap(true, false) {
			f.log.Warn("backend left rotation", "backend", b.id, "url", b.url, "status", ready.Status, "err", err)
		}
		return
	}

	var stats service.StatsResponse
	if err := probe.GetJSON(ctx, b.url+"/v1/stats", &stats); err != nil {
		b.setErr(err)
		b.view.SetDown(true)
		if b.ready.CompareAndSwap(true, false) {
			f.log.Warn("backend left rotation", "backend", b.id, "url", b.url, "err", err)
		}
		return
	}
	// A backend whose every shard has zero live machines (runtime removals)
	// can only answer 429s: keep it in rotation — it is healthy and will
	// recover on a revive — but steer routing away until machines return.
	degraded := len(stats.Shards) > 0
	for _, sh := range stats.Shards {
		if sh.LiveMachines > 0 {
			degraded = false
		}
	}
	b.view.SetDown(degraded)
	b.setErr(nil)
	if b.ready.CompareAndSwap(false, true) {
		f.log.Info("backend joined rotation", "backend", b.id, "url", b.url, "shards", len(stats.Shards), "degraded", degraded)
	}
}
