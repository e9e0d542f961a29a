package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// ClientConfig tunes the retrying service client.
type ClientConfig struct {
	// Timeout bounds each individual attempt (not the whole call); 0 means
	// no per-attempt timeout beyond the caller's ctx.
	Timeout time.Duration
	// Retries is the retry budget after the first attempt (default 0: one
	// attempt, the pre-retry behavior). Only transport errors, 5xx and 429
	// are retried — a 4xx is the caller's bug and repeats identically.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt up to
	// maxBackoff, each sleep stretched by up to 50% deterministic jitter
	// (default 50ms). A server's Retry-After overrides the computed delay.
	Backoff time.Duration
	// MachineNames are the served matrix's machine names by matrix-wide
	// index (nil: none). A decision's machine_name equal to its index's name
	// is that string, not a new one.
	MachineNames []string
}

// Client is the service's retrying client, with exponential backoff. Safe
// for concurrent use.
//
// Every request it makes — Decide, the hot path, and PostJSON and GetJSON
// (drain, admin, polls) — is HTTP/1.1 it speaks itself (hop.go): on the
// caller's goroutine, over keep-alive connections the Client owns per
// server, with no net/http Transport in between. An idle connection is
// peeked before reuse, a failed one takes the server's idle ones with it,
// and no redirect is followed.
//
// Retrying a decide is only harmless when the request carries a
// DecisionID (the server then deduplicates), so Decide never sends an
// ID-less request twice; Replay stamps an ID on every request whenever
// retries are enabled.
type Client struct {
	cfg ClientConfig
	// origins holds the connections, by server base URL.
	mu      sync.RWMutex
	origins map[string]*origin
	// jitterState drives a counter-based splitmix64 stream — deterministic
	// jitter, no wall-clock randomness, same idiom as router.PowerOfTwo.
	jitterState atomic.Uint64
	// attempts counts every HTTP attempt (first tries and retries alike).
	attempts atomic.Int64
	// shed429 counts attempts answered 429 — a degraded shard shedding
	// load (or a router's backpressure).
	shed429 atomic.Int64
}

// Backoff defaults and cap.
const (
	defaultBackoff = 50 * time.Millisecond
	maxBackoff     = 2 * time.Second
)

// NewClient builds a retrying client. Its first parameter is unused — the
// client makes every request over its own connections — and stays only
// while bench/hcbench passes nil there.
func NewClient(_ *http.Client, cfg ClientConfig) *Client {
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = defaultBackoff
	}
	return &Client{cfg: cfg, origins: map[string]*origin{}}
}

// HTTPError is a non-2xx response, carrying the status and the server's
// Retry-After hint (0 when absent).
type HTTPError struct {
	Status     int
	URL        string
	Msg        string
	RetryAfter time.Duration
}

// Error implements error.
func (e *HTTPError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("service: %s: %s (HTTP %d)", e.URL, e.Msg, e.Status)
	}
	return fmt.Sprintf("service: %s: HTTP %d", e.URL, e.Status)
}

// retryable reports whether err is worth another attempt: transport
// failures, server errors and backpressure (429). Client errors (other
// 4xx), redirects (3xx, never followed) and JSON decode failures repeat
// identically, so they are final.
func retryable(err error) bool {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status >= 500 || he.Status == http.StatusTooManyRequests
	}
	// Transport-level failure (connection refused, reset, per-attempt
	// timeout): the hop wraps them all in *url.Error.
	var ue *url.Error
	return errors.As(err, &ue)
}

// PostJSON posts body (nil for empty) to url and decodes the response
// into out (nil: the response is read and dropped), retrying per the
// client's config. Decide requests go through Decide.
func (cl *Client) PostJSON(ctx context.Context, url string, body, out any) error {
	return cl.exchange(ctx, "Post", url, body, out, cl.cfg.Retries)
}

// pause sleeps before the retry that follows attempt, which failed with
// err: the backoff, or the server's Retry-After when it sent one. It
// reports false when ctx ended first.
func (cl *Client) pause(ctx context.Context, attempt int, err error) bool {
	delay := backoff(cl.cfg.Backoff, attempt, cl.jitter())
	var he *HTTPError
	if errors.As(err, &he) && he.RetryAfter > 0 {
		delay = he.RetryAfter
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoff is the sleep after attempt: first, doubled per earlier attempt up
// to maxBackoff, stretched by up to 50% from the jitter draw j. The jitter
// desynchronizes retry storms across clients without reading a wall clock
// for randomness.
func backoff(first time.Duration, attempt int, j uint64) time.Duration {
	d := min(first, maxBackoff)
	for k := 0; k < attempt && d < maxBackoff; k++ {
		d = min(2*d, maxBackoff)
	}
	return d + time.Duration(j%uint64(d/2+1))
}

// Attempts returns the total HTTP attempts made (first tries + retries).
func (cl *Client) Attempts() int64 { return cl.attempts.Load() }

// Shed429 returns the number of attempts answered HTTP 429.
func (cl *Client) Shed429() int64 { return cl.shed429.Load() }

// GetJSON fetches url and decodes the response into out, in a single
// attempt under the per-attempt timeout — no retries. Health and stats
// probes want fast failure, not a retry budget: the caller polls anyway.
func (cl *Client) GetJSON(ctx context.Context, u string, out any) error {
	return cl.exchange(ctx, "Get", u, nil, out, 0)
}

// statusError is the HTTPError of a non-2xx answer from u with body and
// the given Retry-After delay; it counts a 429.
func (cl *Client) statusError(status int, retryAfter time.Duration, u string, body []byte) *HTTPError {
	if status == http.StatusTooManyRequests {
		cl.shed429.Add(1)
	}
	he := &HTTPError{Status: status, URL: u, RetryAfter: retryAfter}
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil {
		he.Msg = eb.Error
	}
	return he
}

// retryAfterOf is the delay a Retry-After value in whole seconds asks for:
// 0 when v is empty or not such a value.
func retryAfterOf(v string) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// jitter advances the deterministic splitmix64 stream by one draw.
func (cl *Client) jitter() uint64 {
	x := cl.jitterState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ReplayConfig tunes a trace replay against a running admission server.
type ReplayConfig struct {
	// BatchSize is the number of tasks per decide request (default 16).
	BatchSize int
	// Speed is the arrival-rate multiplier relative to the trace's own
	// clock (ticks are milliseconds): 1 replays in real time, 50 replays
	// fifty times faster, and <= 0 replays as fast as the server answers.
	Speed float64
	// Drain issues POST /v1/drain after the last task and collects the
	// final Result (default on through cmd/hcload).
	Drain bool
	// From and To bound the replay to trace tasks [From, To) (To <= 0 means
	// the end). Splitting one trace across a server restart — replay -to N,
	// restart, replay -from N — feeds the journaled server the same total
	// stream as one uninterrupted replay, which is how the crash-recovery
	// smoke proves recovered state equals live state.
	From, To int
	// Timeout, Retries and Backoff configure the retrying client (see
	// ClientConfig). With Retries > 0 every decide request is stamped with
	// a DecisionID so a retry of a timed-out-but-committed request replays
	// the original decisions instead of double-feeding.
	Timeout time.Duration
	Retries int
	Backoff time.Duration
	// DecisionIDPrefix namespaces the stamped DecisionIDs (default
	// "replay"). Distinct replays against one server must use distinct
	// prefixes, or their IDs collide in the server's dedup window.
	DecisionIDPrefix string
	// Churn schedules admin membership operations at task-index points of
	// the replay (see ParseChurnPlan) — the fault-injection harness.
	// Indexes are relative to the replayed window (after From/To).
	Churn []ChurnAction
}

// ShardLatency is the client-observed decide latency attributed to one
// admission shard — shard Shard of backend Backend behind a router, where
// every backend numbers its shards from 0: a request's latency counts
// toward every shard that decided part of it, so with single-task batches
// the attribution is exact and with larger batches it bounds each shard's
// contribution.
type ShardLatency struct {
	Backend  int           `json:"backend,omitempty"`
	Shard    int           `json:"shard"`
	Requests int           `json:"requests"`
	P50      time.Duration `json:"latency_p50_ns"`
	P99      time.Duration `json:"latency_p99_ns"`
}

// ReplayReport is the client-side account of one replayed trace.
type ReplayReport struct {
	Requests int `json:"requests"`
	Tasks    int `json:"tasks"`
	Mapped   int `json:"mapped"`
	Deferred int `json:"deferred"`
	Dropped  int `json:"dropped"`
	// Decisions is the full decision sequence, in arrival order.
	Decisions []Decision `json:"decisions"`
	// LatencyP50/P99 are client-observed decide-request latencies.
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	// PerShard breaks the latencies down by the (backend, shard) pairs that
	// served each request, in that order (one entry on an unsharded server).
	PerShard []ShardLatency `json:"per_shard,omitempty"`
	// Retried counts decide requests that needed more than one attempt.
	Retried int `json:"retried,omitempty"`
	// ChurnOps counts the churn-plan membership operations applied.
	ChurnOps int `json:"churn_ops,omitempty"`
	// Shed429 counts decide attempts a degraded shard shed with HTTP 429.
	Shed429 int `json:"shed_429,omitempty"`
	// DegradedWindow is the cumulative wall time spent on decide requests
	// that saw at least one 429 — how long the replay ran against degraded
	// capacity before the request got through (or failed).
	DegradedWindow time.Duration `json:"degraded_window_ns,omitempty"`
	// DuplicateAcks counts trace tasks acknowledged more than once — a
	// nonzero value means a retry double-fed the server (the idempotency
	// machinery failed).
	DuplicateAcks int           `json:"duplicate_acks,omitempty"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	// Final is the server's drain Result (nil unless ReplayConfig.Drain).
	Final *sim.Result `json:"final,omitempty"`
}

// Robustness returns the achieved on-time completion ratio (%) reported by
// the server's drain, or -1 when the replay did not drain.
func (r *ReplayReport) Robustness() float64 {
	if r.Final == nil {
		return -1
	}
	return r.Final.RobustnessPct
}

// Replay feeds a workload trace through a server's /v1/decide endpoint in
// arrival order, pacing by the trace's arrival gaps scaled by cfg.Speed,
// and reports decisions, latency percentiles and (when draining) the
// server's final Result. The same (trace, batch size) always produces the
// same request sequence, so replays are reproducible end to end. With
// cfg.Retries > 0, failed requests are retried with backoff under stamped
// decision IDs (idempotent against dedup-aware servers).
func Replay(ctx context.Context, baseURL string, tr *workload.Trace, cfg ReplayConfig) (*ReplayReport, error) {
	cl := NewClient(nil, ClientConfig{Timeout: cfg.Timeout, Retries: cfg.Retries, Backoff: cfg.Backoff})
	defer cl.CloseIdle()
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 16
	}
	if cfg.DecisionIDPrefix == "" {
		cfg.DecisionIDPrefix = "replay"
	}
	tasks := tr.Tasks
	if cfg.To > 0 && cfg.To < len(tasks) {
		tasks = tasks[:cfg.To]
	}
	if cfg.From < 0 || cfg.From > len(tasks) {
		return nil, fmt.Errorf("service: replay window [%d,%d) outside trace of %d tasks", cfg.From, len(tasks), tr.Len())
	}
	tasks = tasks[cfg.From:]
	rep := &ReplayReport{Tasks: len(tasks)}
	lats := make([]time.Duration, 0, (len(tasks)+cfg.BatchSize-1)/cfg.BatchSize)
	type shardKey struct{ backend, shard int }
	shardLats := map[shardKey][]time.Duration{}
	acked := make(map[string]bool, len(tasks))

	// Churn plan, ordered by firing point. Actions fire between batches so
	// every membership change lands at a deterministic decision boundary.
	// Each is sent once: membership is not idempotent (a lost add's retry
	// adds twice), so a failed one fails the replay.
	churn := append([]ChurnAction(nil), cfg.Churn...)
	sort.SliceStable(churn, func(i, j int) bool { return churn[i].AtTask < churn[j].AtTask })
	fireChurn := func(upto int) error {
		for len(churn) > 0 && churn[0].AtTask <= upto {
			a := churn[0]
			churn = churn[1:]
			if err := cl.exchange(ctx, "Post", baseURL+"/v1/admin/machines", &a.Req, nil, 0); err != nil {
				return fmt.Errorf("service: churn action at task %d (%s): %w", a.AtTask, a.Req.Op, err)
			}
			rep.ChurnOps++
		}
		return nil
	}
	start := time.Now()

	for lo := 0; lo < len(tasks); lo += cfg.BatchSize {
		if err := fireChurn(lo); err != nil {
			return nil, err
		}
		hi := lo + cfg.BatchSize
		if hi > len(tasks) {
			hi = len(tasks)
		}
		specs := make([]TaskSpec, hi-lo)
		var id string
		if cfg.Retries > 0 {
			// A stable per-request ID makes the retry idempotent: a repeat
			// after a timed-out-but-committed attempt replays the original.
			id = fmt.Sprintf("%s-%d-%06d", cfg.DecisionIDPrefix, cfg.From, rep.Requests)
		}
		for i, t := range tasks[lo:hi] {
			specs[i] = TaskSpec{
				ID:         fmt.Sprintf("t%d", t.ID),
				Type:       int(t.Type),
				Arrival:    t.Arrival,
				Deadline:   t.Deadline,
				ExecByType: t.ExecByType,
			}
		}
		if cfg.Speed > 0 {
			// Pace so the batch's first arrival lands on the scaled clock.
			due := start.Add(time.Duration(float64(tasks[lo].Arrival-tasks[0].Arrival) / cfg.Speed * float64(time.Millisecond)))
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		t0 := time.Now()
		attemptsBefore := cl.Attempts()
		shedBefore := cl.Shed429()
		// The decisions land straight in the report.
		k := len(rep.Decisions)
		rep.Decisions = append(rep.Decisions, make([]Decision, len(specs))...)
		got := rep.Decisions[k:]
		_, n, err := cl.Decide(ctx, baseURL, id, specs, nil, got)
		if err != nil {
			return nil, err
		}
		if n != len(specs) {
			return nil, fmt.Errorf("service: %s answered %d decisions for %d tasks", baseURL, n, len(specs))
		}
		if cl.Attempts() > attemptsBefore+1 {
			rep.Retried++
		}
		lat := time.Since(t0)
		if shed := cl.Shed429() - shedBefore; shed > 0 {
			// The request crossed a degraded window: some attempts were shed
			// with 429 before one got through.
			rep.Shed429 += int(shed)
			rep.DegradedWindow += lat
		}
		lats = append(lats, lat)
		rep.Requests++
		seen := map[shardKey]bool{}
		for _, d := range got {
			switch d.Action {
			case ActionMap:
				rep.Mapped++
			case ActionDefer:
				rep.Deferred++
			case ActionDrop:
				rep.Dropped++
			}
			if d.ID != "" {
				if acked[d.ID] {
					rep.DuplicateAcks++
				}
				acked[d.ID] = true
			}
			if k := (shardKey{d.Backend, d.Shard}); !seen[k] {
				seen[k] = true
				shardLats[k] = append(shardLats[k], lat)
			}
		}
	}

	// Trailing churn actions (scheduled at or past the end of the window)
	// fire before the drain so they still reach the journal.
	if err := fireChurn(int(^uint(0) >> 1)); err != nil {
		return nil, err
	}
	// Elapsed covers decision traffic only, so achieved tasks/s stays
	// comparable to the decide benchmarks; the drain below runs the whole
	// virtual system to completion and is not decision throughput.
	rep.Elapsed = time.Since(start)
	if cfg.Drain {
		var dr DrainResponse
		if err := cl.PostJSON(ctx, baseURL+"/v1/drain", nil, &dr); err != nil {
			return nil, err
		}
		rep.Final = dr.Result
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.LatencyP50 = percentile(lats, 0.50)
	rep.LatencyP99 = percentile(lats, 0.99)
	keys := make([]shardKey, 0, len(shardLats))
	for k := range shardLats {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b shardKey) int {
		return cmp.Or(cmp.Compare(a.backend, b.backend), cmp.Compare(a.shard, b.shard))
	})
	for _, k := range keys {
		sl := shardLats[k]
		sort.Slice(sl, func(i, j int) bool { return sl[i] < sl[j] })
		rep.PerShard = append(rep.PerShard, ShardLatency{
			Backend:  k.backend,
			Shard:    k.shard,
			Requests: len(sl),
			P50:      percentile(sl, 0.50),
			P99:      percentile(sl, 0.99),
		})
	}
	return rep, nil
}

// percentile reads the q-quantile from an ascending latency slice by
// linear interpolation between the bracketing order statistics (Hyndman &
// Fan type 7, the default of R and numpy). The earlier nearest-rank
// definition collapsed small samples onto single order statistics — at
// n < 100 every q > (n-1)/n reads the maximum and the median of two
// samples reads the faster one — biasing reported tails whichever way the
// truncation fell; interpolation converges smoothly from tiny replay runs
// up.
func percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return sorted[0]
	}
	r := q * float64(n-1)
	i := int(r)
	if i >= n-1 {
		return sorted[n-1]
	}
	if i < 0 {
		i = 0
	}
	frac := r - float64(i)
	return sorted[i] + time.Duration(frac*float64(sorted[i+1]-sorted[i])+0.5)
}
