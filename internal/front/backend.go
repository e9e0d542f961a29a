package front

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/service"
)

// backend is one shard-server process behind the router: its rotation
// state, its in-flight window and the ShardView the routing policy reads.
type backend struct {
	id  int
	url string
	// view carries the one bit both routing and rotation membership read:
	// down — never polled, /readyz did not answer 200 on the last poll, or a
	// proxy to the backend failed since. Written by the poller and markDown,
	// read lock-free.
	view *router.ShardView
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

// ready reports whether the backend is in rotation.
func (b *backend) ready() bool { return !b.view.Down() }

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

// poller drives one backend's rotation membership: every Poll it asks
// /readyz, the backend's one health bit — a backend that is booting,
// draining, fail-stopped or degraded (no live machine) answers 503 there.
// The probe is a client of its own, one attempt per request — a probe that
// fails should fail fast, not burn a retry budget — whose requests stay out
// of the router's upstream attempt count.
func (f *Front) poller(b *backend) {
	defer f.pollWG.Done()
	probe := service.NewClient(nil, service.ClientConfig{Timeout: f.cfg.Timeout})
	defer probe.CloseIdle()
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

	// The status code is the bit: 200 ready, anything else not.
	err := probe.GetJSON(ctx, b.url+"/readyz", nil)
	if err == nil && !b.ready() { // joining: new, or restarted since
		err = f.checkProfile(ctx, b, probe)
	}
	b.setErr(err)
	if err != nil {
		if !b.view.SetDown(true) {
			f.log.Warn("backend left rotation", "backend", b.id, "url", b.url, "err", err)
		}
		return
	}
	if b.view.SetDown(false) {
		f.log.Info("backend joined rotation", "backend", b.id, "url", b.url)
	}
}

// checkProfile requires the profile the backend's /healthz names to
// resolve to the router's system: "transcoding" matches "video",
// "spec:seed=7" does not match "spec".
func (f *Front) checkProfile(ctx context.Context, b *backend, probe *service.Client) error {
	var st service.StatusResponse
	if err := probe.GetJSON(ctx, b.url+"/healthz", &st); err != nil {
		return err
	}
	p, err := pet.ProfileFromSpec(st.Profile)
	if err != nil || !reflect.DeepEqual(p, f.matrix.Profile()) {
		return fmt.Errorf("front: backend %d serves profile %q, the router %q", b.id, st.Profile, f.cfg.Profile)
	}
	return nil
}
