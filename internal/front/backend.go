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
	// view mirrors the backend's aggregate load and per-class robustness,
	// fed by the poller from GET /v1/stats and between polls by the
	// front's own admission observations. Policies read it lock-free; its
	// writers (the poller, every decide) take mu: a ShardView has one
	// writer by contract. SetDown is one atomic and needs no lock.
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
// Poll it checks /readyz, and while the backend is ready it refreshes the
// view from /v1/stats (summing the backend's shard snapshots into
// one per-process load gauge). Polling uses plain one-shot requests — a
// probe that fails should fail fast, not burn the client's retry budget.
func (f *Front) poller(b *backend) {
	defer f.pollWG.Done()
	probe := service.NewClient(f.cfg.HTTPClient, service.ClientConfig{Timeout: f.cfg.Timeout})
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
	var batch, queued, free int
	degraded := len(stats.Shards) > 0
	robustness := make([]float64, f.matrix.NumTaskTypes())
	for _, sh := range stats.Shards {
		batch += sh.Live.Batch
		queued += sh.Live.Queued + sh.Live.Running // in machine queues, as sim.Engine.PublishLoad counts them
		free += int(sh.FreeSlots)
		if sh.LiveMachines > 0 {
			degraded = false
		}
		for c := range robustness {
			if c < len(sh.Robustness) {
				robustness[c] += sh.Robustness[c] / float64(len(stats.Shards))
			}
		}
	}
	b.mu.Lock()
	b.view.SetLoad(batch, queued, free)
	for class, p := range robustness {
		b.view.SetClassRobustness(class, p)
	}
	b.mu.Unlock()
	// A backend whose every shard has zero live machines (runtime removals)
	// can only answer 429s: keep it in rotation — it is healthy and will
	// recover on a revive — but steer routing away until machines return.
	b.view.SetDown(degraded)
	b.setErr(nil)
	if b.ready.CompareAndSwap(false, true) {
		f.log.Info("backend joined rotation", "backend", b.id, "url", b.url, "shards", len(stats.Shards), "degraded", degraded)
	}
}
