// Package front implements the router tier of the multi-process
// deployment: a stateless-ish front-end (cmd/hcrouter) that speaks the
// admission service's wire protocol (internal/service) and proxies every
// decide batch across K independent shard-server processes (cmd/hcserve),
// each owning one disjoint machine partition of the profile
// (sim.PartitionMachines, hcserve -partition k/K).
//
// The router tier partitions by task class and nothing else
// (router.ClassHash, spec hash[:seed=N]; New refuses any other policy).
// The paper's calculus is local to a machine queue — Eq. 1 depends only on
// the queues a task may run on — so any partition of the machines keeps
// the dropping decisions right, and class hashing is the one that keeps a
// retry's split equal to its original's. Each backend has a
// router.ShardView that carries one bit: down, meaning out of rotation. A
// class routes to its home backend, the hash of the class modulo the
// number of backends, and moves to the next backend up only while its home
// is down. The router mirrors no backend load; each backend exports its
// own.
//
// # Fault model
//
// Backends are health-gated by one probe, GET /readyz, polled: a backend
// joins the rotation once it answers 200 (and its /healthz names the
// router's profile), and leaves it on the first failed proxy or poll. A
// backend that can admit nothing, degraded ones included, answers 503
// there, so it is never a reroute target; with none in rotation a decide
// gets 503 and no upstream attempt. A decide sub-batch that fails on its
// backend is rerouted once to a backend in rotation.
//
// The decide hop runs on the goroutine that handles the client's request
// (service.Client.StartDecide / DecideCall.Wait, through
// service.FanOutPhased): every sub-request is written, then each answer is
// read in backend order, and retries and the reroute follow a failed read
// there, under the same sub-IDs. Each backend's connections are the
// client's own keep-alive ones. An idle one is peeked before reuse, so a
// backend restarted while the router sat idle costs no failed attempt; a
// connection that fails is closed together with every idle one to its
// backend. A backend never stalls behind an unread answer: its handler
// writes the answer after the shard's turn is released. The polls and the
// drain take the same exchange and follow no redirect, so New refuses a
// backend URL with a path (one trailing "/" is trimmed), query or scheme
// other than http.
//
// The router keeps no identity of its own: a sub-request's decision ID is
// derived from the client's DecisionID, the backend and the request slots
// it carries (route.subID), so a retried sub-batch replays the backend's
// journaled original, whichever router process forwards it. A client's
// same-ID retry through a restarted router is therefore exactly-once while
// the home backends of its classes are up, as they were for the original.
// A reroute goes out under the survivor's ID; a request that failed after
// some sub-batches committed spends its ID (service.FanOut marks it); a
// backend restarted from a crash remembers about one journal segment of
// IDs. A request without a DecisionID is keyed by a random token drawn in
// New and its request number.
//
// Bounded in-flight windows per backend shed load early: when every
// routed backend is at its window, the front answers 429 with
// Retry-After rather than queueing unboundedly in front of a struggling
// backend.
package front

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// Front-end failure modes surfaced to HTTP.
var (
	// ErrNoBackends: no backend is currently ready (all booting, down,
	// draining or degraded).
	ErrNoBackends = errors.New("front: no ready backends")
	// ErrWindowFull: a routed backend is at its in-flight window; the
	// client should back off and retry (HTTP 429 + Retry-After).
	ErrWindowFull = errors.New("front: backend in-flight window full")
	// ErrDraining: the router has begun draining the fleet.
	ErrDraining = errors.New("front: router is draining")
)

// Config assembles a router tier.
type Config struct {
	// Backends are the shard servers' base URLs, http://host:port (e.g.
	// "http://127.0.0.1:8081"; one trailing "/" is trimmed). Together they
	// should cover the profile's machine partition exactly once (hcserve
	// -partition 0/K .. K-1/K).
	Backends []string
	// Profile is the system profile spec; it must resolve to every
	// backend's (checked against the backend's /healthz each time it joins
	// the rotation; a backend serving another profile stays out of it).
	Profile string
	// Router is the backend-routing policy spec; the class-hash spec
	// hash[:seed=N] (internal/router grammar) is the only one accepted.
	// Default "hash".
	Router string
	// Window bounds in-flight decide sub-requests per backend (default 32).
	Window int
	// Poll is the /readyz polling period per backend (default 250ms).
	Poll time.Duration
	// Timeout, Retries and Backoff configure the upstream client (see
	// service.ClientConfig; defaults 5s, 2, 50ms). Retries re-send the SAME
	// sub-request (same decision ID) to the SAME backend; rerouting to
	// another backend only happens after the retry budget is spent.
	// Retries: 0 = default 2, negative = none.
	Timeout time.Duration
	Retries int
	Backoff time.Duration
	// TraceSample stage-traces every Nth proxied request (route → proxy →
	// ack); 0 disables.
	TraceSample int
	// Logger receives structured diagnostics.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Profile == "" {
		c.Profile = "spec"
	}
	if c.Router == "" {
		c.Router = "hash"
	}
	if c.Window == 0 {
		c.Window = 32
	}
	if c.Poll == 0 {
		c.Poll = 250 * time.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Front is the router tier: backend registry, routing policy, upstream
// client and the request fan-out/merge engine.
type Front struct {
	cfg      Config
	matrix   *pet.Matrix
	policy   router.ClassHash
	backends []*backend
	// views are the backends' views in backend order, the policy's input.
	views   []*router.ShardView
	client  *service.Client
	dedup   *service.DedupWindow
	tel     *telemetry.Telemetry
	log     *slog.Logger
	metrics *metrics

	// token and seq key a request that arrives without a DecisionID: a
	// random token drawn in New and the request's number (seq also picks
	// the traced requests).
	token string
	seq   atomic.Int64

	mu       sync.Mutex
	draining bool
	final    *sim.Result
	drainErr error
	drained  chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	pollWG   sync.WaitGroup
}

// New resolves the profile and policy, registers the backends and starts
// their health pollers. Backends need not be up yet: they join the
// rotation when their /readyz first answers 200.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("front: no backends configured")
	}
	matrix, err := pet.CachedMatrix(cfg.Profile)
	if err != nil {
		return nil, err
	}
	p, err := router.FromSpec(cfg.Router)
	if err != nil {
		return nil, err
	}
	policy, ok := p.(router.ClassHash)
	if !ok {
		return nil, fmt.Errorf("front: routing policy %q: the router tier partitions by task class: hash[:seed=N]", cfg.Router)
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("front: window %d, want >= 1", cfg.Window)
	}
	if cfg.TraceSample < 0 {
		return nil, fmt.Errorf("front: trace sample %d, want >= 0", cfg.TraceSample)
	}
	names := make([]string, len(matrix.Machines()))
	for i, m := range matrix.Machines() {
		names[i] = m.Name
	}
	f := &Front{
		cfg:    cfg,
		matrix: matrix,
		policy: policy,
		client: service.NewClient(nil, service.ClientConfig{
			Timeout: cfg.Timeout, Retries: cfg.Retries, Backoff: cfg.Backoff, MachineNames: names,
		}),
		tel:     telemetry.New(1, cfg.TraceSample, telemetry.DefaultRingSize),
		log:     cfg.Logger,
		dedup:   service.NewDedupWindow(service.DefaultDedupWindow),
		metrics: newMetrics(),
		token:   rand.Text(),
		drained: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	for i, raw := range cfg.Backends {
		// The router appends its own paths and follows no redirect.
		u := strings.TrimSuffix(raw, "/")
		if pu, err := url.Parse(u); err != nil || pu.Host == "" || u != "http://"+pu.Host {
			return nil, fmt.Errorf("front: backend %q: want http://host:port", raw)
		}
		b := &backend{
			id:     i,
			url:    u,
			view:   router.NewShardView(0), // the down bit only
			window: make(chan struct{}, cfg.Window),
		}
		b.view.SetDown(true) // until its first good poll
		f.backends = append(f.backends, b)
		f.views = append(f.views, b.view)
	}
	for _, b := range f.backends {
		f.pollWG.Add(1)
		go f.poller(b)
	}
	return f, nil
}

// Close stops the pollers and closes the idle upstream connections. It
// does NOT drain the backends — draining is a client decision (POST
// /v1/drain); a router restart must not destroy fleet state.
func (f *Front) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.pollWG.Wait()
	f.client.CloseIdle()
}

// Draining reports whether a fleet drain has begun.
func (f *Front) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// NumReady returns how many backends are currently in rotation.
func (f *Front) NumReady() int {
	n := 0
	for _, b := range f.backends {
		if b.ready() {
			n++
		}
	}
	return n
}

// readiness is the router's /readyz status: "draining", else "booting"
// until every backend has been polled once (going ready on the first one
// routed early requests over a partial fleet), then "no-backends" while
// none is in rotation, else "ok".
func (f *Front) readiness() string {
	if f.Draining() {
		return "draining"
	}
	for _, b := range f.backends {
		if !b.polled.Load() {
			return "booting"
		}
	}
	if f.NumReady() == 0 {
		return "no-backends"
	}
	return "ok"
}

// route is the storage one connection's decides are routed and fanned out
// in (Front.decide), kept from request to request so that a decide in
// steady state allocates none of it.
type route struct {
	// key is the request's key: its DecisionID, or the router's token and
	// the request's number. hash is a sub-ID's hash input.
	key, hash []byte
	// byBackend and subs are, per backend, the request slots it takes and
	// its sub-request under way.
	byBackend [][]int
	subs      []subRequest
}

// subID appends to id[:0] the decision ID of the sub-request carrying slots
// idxs (ascending) of the request keyed x.key to the backend at url: 120
// bits of SHA-256 over the three, length-prefixed, as 20 base64url
// characters.
func (x *route) subID(id []byte, url string, idxs []int) []byte {
	b := append(binary.AppendUvarint(x.hash[:0], uint64(len(x.key))), x.key...)
	b = append(binary.AppendUvarint(b, uint64(len(url))), url...)
	for _, i := range idxs {
		b = binary.AppendUvarint(b, uint64(i))
	}
	x.hash = b
	sum := sha256.Sum256(b)
	return base64.RawURLEncoding.AppendEncode(id[:0], sum[:15])
}

// Decide validates one decide batch, routes each task to its class's home
// backend (or the next one up while the home is down), proxies the
// per-backend sub-batches (with retry and one-shot reroute), and merges the
// decisions back into request order. It runs wholly on the caller's
// goroutine: every sub-request is written before the first answer is read,
// so the backends decide concurrently while the router waits. Decision
// sequence numbers are per backend: behind the router a decision's
// identity is (Backend, Seq).
func (f *Front) Decide(ctx context.Context, req *service.DecideRequest) (*service.DecideResponse, error) {
	resp := new(service.DecideResponse)
	if err := f.decide(ctx, req, resp, new(route)); err != nil {
		return nil, err
	}
	return resp, nil
}

// decider hands one connection of the router's decide route
// (service.DecideHandler) its decide: Front.decide over routing storage of
// the connection's own.
func (f *Front) decider() service.DecideFunc {
	x := new(route)
	return func(ctx context.Context, req *service.DecideRequest, resp *service.DecideResponse) error {
		return f.decide(ctx, req, resp, x)
	}
}

// decide is Decide answering into resp, whose Decisions storage it reuses,
// and routing in x. On an error resp holds nothing to read.
func (f *Front) decide(ctx context.Context, req *service.DecideRequest, resp *service.DecideResponse, x *route) error {
	if req == nil || len(req.Tasks) == 0 {
		return fmt.Errorf("front: empty decide request")
	}
	if err := req.Validate(f.matrix.NumTaskTypes(), f.matrix.NumMachineTypes()); err != nil {
		f.metrics.rejected.Add(1)
		return err
	}
	if f.Draining() {
		return ErrDraining
	}
	f.metrics.requests.Add(1)

	seq := f.seq.Add(1) - 1
	x.key = append(x.key[:0], req.DecisionID...)
	if req.DecisionID == "" {
		x.key = strconv.AppendInt(append(x.key, f.token...), seq, 10)
	}
	var act *telemetry.Active
	var origin time.Time
	if f.tel.Enabled() {
		origin = time.Now()
		act = f.tel.Begin(seq, origin)
	}

	if f.NumReady() == 0 {
		return ErrNoBackends
	}

	// Route every task over the whole fleet, not the backends in rotation,
	// so a class leaves its home only while that home is down; then group
	// into per-backend sub-batches preserving request order.
	if x.byBackend == nil {
		x.byBackend = make([][]int, len(f.backends))
		x.subs = make([]subRequest, len(f.backends))
	}
	byBackend := x.byBackend
	for s := range byBackend {
		byBackend[s] = byBackend[s][:0]
	}
	for i := range req.Tasks {
		s := f.policy.Route(router.Task{Class: req.Tasks[i].Type}, f.views)
		byBackend[s] = append(byBackend[s], i)
	}

	// One window token per involved backend, acquired non-blocking: if any
	// backend is saturated, shed the whole request now (429) rather than
	// block behind it.
	for s, idxs := range byBackend {
		if len(idxs) > 0 && !f.backends[s].tryAcquire() {
			for held := range s {
				if len(byBackend[held]) > 0 {
					f.backends[held].release()
				}
			}
			f.metrics.shed.Add(1)
			return fmt.Errorf("%w (backend %d)", ErrWindowFull, s)
		}
	}

	var proxyStart time.Time
	if act != nil {
		proxyStart = time.Now()
		act.Mark(telemetry.StageRoute, origin, proxyStart)
	}

	resp.Now, resp.Decisions = 0, slices.Grow(resp.Decisions[:0], len(req.Tasks))[:len(req.Tasks)]
	now, err := service.FanOutPhased(byBackend, func(s int) {
		f.send(ctx, x, req, resp, &x.subs[s], f.backends[s], byBackend[s])
	}, func(s int) (pmf.Tick, error) {
		defer f.backends[s].release()
		return f.proxy(ctx, x, req, resp, &x.subs[s])
	})
	if err != nil {
		return err
	}
	resp.Now = now
	for i := range resp.Decisions {
		f.metrics.Count(resp.Decisions[i].Action)
	}

	if act != nil {
		done := time.Now()
		act.Mark(telemetry.StageProxy, proxyStart, done)
		act.Mark(telemetry.StageAck, done, time.Now())
		f.tel.Shard(0).Finish(act, 0, "proxy")
	}
	return nil
}

// subRequest is one backend's sub-batch of a decide request, under way.
type subRequest struct {
	b    *backend
	idxs []int
	id   []byte // its sub-ID (route.subID)
	call service.DecideCall
	t0   time.Time
}

// proxy finishes sub (the client retries transport errors, 5xx and 429
// with the SAME decision ID), and on final failure marks its backend down
// and reroutes ONCE to another ready backend, whose sub-ID differs.
// Returns the sub-response's clock.
func (f *Front) proxy(ctx context.Context, x *route, req *service.DecideRequest, resp *service.DecideResponse, sub *subRequest) (pmf.Tick, error) {
	now, err := f.wait(sub, resp)
	if err == nil {
		return now, nil
	}
	b, idxs := sub.b, sub.idxs
	f.markDown(b, err)
	// Reroute once: any other ready backend with window room takes over.
	// The backend is an input to the sub-ID, so the failed backend, which
	// may yet commit the original sub-batch, and the survivor see two IDs.
	for _, alt := range f.backends {
		if alt == b || !alt.ready() {
			continue
		}
		if !alt.tryAcquire() {
			continue
		}
		f.metrics.reroutes.Add(1)
		f.log.Warn("rerouting sub-batch", "from_backend", b.id, "to_backend", alt.id, "tasks", len(idxs), "err", err)
		var re subRequest
		f.send(ctx, x, req, resp, &re, alt, idxs)
		now, rerr := f.wait(&re, resp)
		alt.release()
		if rerr != nil {
			f.markDown(alt, rerr)
			return 0, fmt.Errorf("%w: backend %d failed (%v); reroute to %d failed: %v", errUpstream, b.id, err, alt.id, rerr)
		}
		return now, nil
	}
	return 0, fmt.Errorf("%w: backend %d failed with no surviving backend to reroute to: %v", errUpstream, b.id, err)
}

// send starts slots idxs of req, keyed x.key, on backend b as one decide
// sub-request, sub, encoded straight from req's tasks: it writes the
// request, and wait reads the answer.
func (f *Front) send(ctx context.Context, x *route, req *service.DecideRequest, resp *service.DecideResponse, sub *subRequest, b *backend, idxs []int) {
	b.proxied.Add(1)
	sub.b, sub.idxs, sub.t0 = b, idxs, time.Now()
	sub.id = x.subID(sub.id, b.url, idxs)
	sub.call = f.client.StartDecide(ctx, b.url, sub.id, req.Tasks, idxs, resp.Decisions)
}

// wait finishes sub: it decodes the returned decisions straight into their
// request slots, stamped with the backend's index.
func (f *Front) wait(sub *subRequest, resp *service.DecideResponse) (pmf.Tick, error) {
	now, n, err := sub.call.Wait()
	f.metrics.upstream.Observe(time.Since(sub.t0))
	if err != nil {
		return 0, err
	}
	if n != len(sub.idxs) {
		return 0, fmt.Errorf("%w: backend %d answered %d decisions for %d tasks", errUpstream, sub.b.id, n, len(sub.idxs))
	}
	for _, i := range sub.idxs {
		resp.Decisions[i].Backend = sub.b.id
	}
	return now, nil
}

// markDown removes a backend from rotation, and its classes to the next
// backend up, until its poller sees it ready again.
func (f *Front) markDown(b *backend, err error) {
	b.setErr(err)
	if !b.view.SetDown(true) {
		f.log.Warn("backend down", "backend", b.id, "url", b.url, "err", err)
	}
}

// Drain drains the whole fleet: every backend that answers gets POST
// /v1/drain, and the surviving partial Results merge into one fleet
// Result over the full matrix (a dead backend's machines count as idle).
// Like the in-process controller, the drain is committed on first call
// and concurrent callers share the outcome.
func (f *Front) Drain(ctx context.Context) (*sim.Result, error) {
	f.mu.Lock()
	first := !f.draining
	f.draining = true
	f.mu.Unlock()

	if first {
		f.log.Info("fleet drain initiated", "backends", len(f.backends))
		go func() {
			defer close(f.drained)
			parts := make([]*sim.Result, len(f.backends))
			var wg sync.WaitGroup
			for i, b := range f.backends {
				wg.Add(1)
				go func(i int, b *backend) {
					defer wg.Done()
					dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					var dr service.DrainResponse
					if err := f.client.PostJSON(dctx, b.url+"/v1/drain", nil, &dr); err != nil {
						f.log.Warn("backend drain failed", "backend", b.id, "err", err)
						return
					}
					parts[i] = dr.Result
				}(i, b)
			}
			wg.Wait()
			alive := parts[:0:0]
			for _, p := range parts {
				if p != nil {
					alive = append(alive, p)
				}
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			if len(alive) == 0 {
				f.drainErr = fmt.Errorf("front: no backend completed the drain")
				return
			}
			f.final = sim.MergeResults(alive, len(f.matrix.Machines()))
		}()
	}

	select {
	case <-f.drained:
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.drainErr != nil {
			return nil, f.drainErr
		}
		return f.final, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BackendStatus is one backend's entry in the router's GET /v1/stats.
type BackendStatus struct {
	Backend int    `json:"backend"`
	URL     string `json:"url"`
	// Ready is rotation membership, the routing view's bit negated.
	Ready    bool `json:"ready"`
	Inflight int  `json:"inflight"`
	Window   int  `json:"window"`
	// Proxied counts decide sub-requests sent to this backend.
	Proxied   int64  `json:"proxied_requests"`
	LastError string `json:"last_error,omitempty"`
}

// StatsResponse is the router's GET /v1/stats body.
type StatsResponse struct {
	Router   string          `json:"router"`
	Backends []BackendStatus `json:"backends"`
}

// Stats snapshots every backend's rotation state.
func (f *Front) Stats() *StatsResponse {
	st := &StatsResponse{Router: f.policy.Name()}
	for _, b := range f.backends {
		st.Backends = append(st.Backends, BackendStatus{
			Backend:   b.id,
			URL:       b.url,
			Ready:     b.ready(),
			Inflight:  b.inflight(),
			Window:    cap(b.window),
			Proxied:   b.proxied.Load(),
			LastError: b.lastError(),
		})
	}
	return st
}
