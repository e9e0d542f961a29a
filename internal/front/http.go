package front

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// maxDecideBody matches the shard servers' request bound.
const maxDecideBody = 16 << 20

// upstreamBuckets are the upper bounds (seconds) of the upstream
// round-trip histogram. A proxied decide pays network + JSON + the
// backend's own decision latency, so the buckets sit an order of
// magnitude above the in-process decision histogram.
var upstreamBuckets = []float64{
	500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
}

// metrics aggregates the router tier's operational counters.
type metrics struct {
	requests  atomic.Int64 // decide requests accepted for routing
	rejected  atomic.Int64 // malformed requests rejected before routing
	shed      atomic.Int64 // requests shed on a full in-flight window (429)
	reroutes  atomic.Int64 // sub-batches rerouted off a failed backend
	mapped    atomic.Int64
	deferred  atomic.Int64
	dropped   atomic.Int64
	histogram []atomic.Int64
	latSumNS  atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{histogram: make([]atomic.Int64, len(upstreamBuckets)+1)}
}

// countDecisions tallies the decisions at idxs of a merged response.
func (m *metrics) countDecisions(resp *service.DecideResponse, idxs []int) {
	for _, i := range idxs {
		switch resp.Decisions[i].Action {
		case service.ActionMap:
			m.mapped.Add(1)
		case service.ActionDefer:
			m.deferred.Add(1)
		case service.ActionDrop:
			m.dropped.Add(1)
		}
	}
}

// observeUpstream records one upstream decide round-trip.
func (m *metrics) observeUpstream(d time.Duration) {
	s := d.Seconds()
	i := 0
	for ; i < len(upstreamBuckets); i++ {
		if s <= upstreamBuckets[i] {
			break
		}
	}
	m.histogram[i].Add(1)
	m.latSumNS.Add(int64(d))
}

func (m *metrics) writePrometheus(w io.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP taskdrop_router_requests_total Decide requests accepted for routing.\n")
	p("# TYPE taskdrop_router_requests_total counter\n")
	p("taskdrop_router_requests_total %d\n", m.requests.Load())
	p("# HELP taskdrop_router_rejected_total Requests rejected before routing (validation).\n")
	p("# TYPE taskdrop_router_rejected_total counter\n")
	p("taskdrop_router_rejected_total %d\n", m.rejected.Load())
	p("# HELP taskdrop_router_shed_total Requests shed on a full backend in-flight window (HTTP 429).\n")
	p("# TYPE taskdrop_router_shed_total counter\n")
	p("taskdrop_router_shed_total %d\n", m.shed.Load())
	p("# HELP taskdrop_router_reroutes_total Sub-batches rerouted off a failed backend.\n")
	p("# TYPE taskdrop_router_reroutes_total counter\n")
	p("taskdrop_router_reroutes_total %d\n", m.reroutes.Load())
	p("# HELP taskdrop_router_decisions_total Merged admission decisions by action.\n")
	p("# TYPE taskdrop_router_decisions_total counter\n")
	p("taskdrop_router_decisions_total{action=\"map\"} %d\n", m.mapped.Load())
	p("taskdrop_router_decisions_total{action=\"defer\"} %d\n", m.deferred.Load())
	p("taskdrop_router_decisions_total{action=\"drop\"} %d\n", m.dropped.Load())
	p("# HELP taskdrop_router_upstream_latency_seconds Upstream decide round-trip latency (per sub-request, retries included).\n")
	p("# TYPE taskdrop_router_upstream_latency_seconds histogram\n")
	var cum int64
	for i, le := range upstreamBuckets {
		cum += m.histogram[i].Load()
		p("taskdrop_router_upstream_latency_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.histogram[len(upstreamBuckets)].Load()
	p("taskdrop_router_upstream_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	p("taskdrop_router_upstream_latency_seconds_sum %g\n", float64(m.latSumNS.Load())/1e9)
	p("taskdrop_router_upstream_latency_seconds_count %d\n", cum)
}

// NewHandler wires the router tier's HTTP surface — the same shape as a
// shard server's (internal/service.NewHandler), so clients cannot tell a
// router from a single server:
//
//	POST /v1/decide  — batch admission, routed and fanned out across the
//	                   backend fleet; 429 + Retry-After when a routed
//	                   backend's in-flight window is full, 503 when no
//	                   backend is ready
//	POST /v1/drain   — fleet drain; returns the merged Result
//	GET  /v1/stats   — per-backend rotation state (front.StatsResponse)
//	GET  /healthz    — liveness + fleet summary
//	GET  /readyz     — 200 once at least one backend is in rotation
//	GET  /metrics    — Prometheus text exposition (taskdrop_router_*)
//	GET  /debug/traces — retained route→proxy→ack traces
//
// Client-supplied DecisionIDs are deduplicated at this tier exactly as a
// single server would: a retry replays the originally acknowledged bytes.
func NewHandler(f *Front) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		var req service.DecideRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDecideBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			f.metrics.rejected.Add(1)
			service.WriteError(w, http.StatusBadRequest, fmt.Errorf("front: bad decide body: %w", err))
			return
		}
		if id := req.DecisionID; id != "" && f.dedup != nil {
			e, owner := f.dedup.Begin(id)
			if !owner {
				data, n, err := e.Await(r.Context())
				if err != nil {
					service.WriteError(w, http.StatusConflict, fmt.Errorf("front: duplicate decision id %q: %w", id, err))
					return
				}
				if n != len(req.Tasks) {
					service.WriteError(w, http.StatusConflict, fmt.Errorf(
						"front: decision id %q was acknowledged for %d tasks, retried with %d", id, n, len(req.Tasks)))
					return
				}
				service.WriteRawJSON(w, http.StatusOK, data)
				return
			}
			resp, err := f.Decide(r.Context(), &req)
			if err != nil {
				// Nothing was acknowledged under this ID: release it so a
				// retry re-executes. The per-backend sub-IDs keep any
				// upstream partial commits idempotent independently.
				f.dedup.Fail(id, err)
				decideError(w, err)
				return
			}
			data, err := json.Marshal(resp)
			if err != nil {
				f.dedup.Fail(id, err)
				service.WriteError(w, http.StatusInternalServerError, err)
				return
			}
			data = append(data, '\n')
			f.dedup.Commit(id, data, len(req.Tasks))
			service.WriteRawJSON(w, http.StatusOK, data)
			return
		}
		resp, err := f.Decide(r.Context(), &req)
		if err != nil {
			decideError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		res, err := f.Drain(r.Context())
		if err != nil {
			service.WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, &service.DrainResponse{Result: res})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, f.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := service.StatusResponse{
			Status:   "ok",
			Profile:  f.cfg.Profile,
			Machines: len(f.matrix.Machines()),
			Shards:   len(f.backends),
			Router:   f.policy.Name(),
		}
		if f.Draining() {
			st.Status = "draining"
		}
		service.WriteJSON(w, http.StatusOK, &st)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case f.Draining():
			service.WriteJSON(w, http.StatusServiceUnavailable, &service.ReadyResponse{Status: "draining"})
		case f.NumReady() == 0:
			service.WriteJSON(w, http.StatusServiceUnavailable, &service.ReadyResponse{Status: "booting"})
		default:
			service.WriteJSON(w, http.StatusOK, &service.ReadyResponse{Ready: true, Status: "ok"})
		}
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, f.tel.Traces())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		f.metrics.writePrometheus(w)
		writeBackendGauges(w, f)
		if f.dedup != nil {
			fmt.Fprintf(w, "# HELP taskdrop_router_dedup_hits_total Duplicate decision-ID requests served from the router's dedup window.\n")
			fmt.Fprintf(w, "# TYPE taskdrop_router_dedup_hits_total counter\n")
			fmt.Fprintf(w, "taskdrop_router_dedup_hits_total %d\n", f.dedup.Hits())
			fmt.Fprintf(w, "# HELP taskdrop_router_dedup_entries Decision IDs currently retained in the router's dedup window.\n")
			fmt.Fprintf(w, "# TYPE taskdrop_router_dedup_entries gauge\n")
			fmt.Fprintf(w, "taskdrop_router_dedup_entries %d\n", f.dedup.Len())
		}
		fmt.Fprintf(w, "# HELP taskdrop_router_upstream_attempts_total Upstream HTTP attempts (first tries and retries).\n")
		fmt.Fprintf(w, "# TYPE taskdrop_router_upstream_attempts_total counter\n")
		fmt.Fprintf(w, "taskdrop_router_upstream_attempts_total %d\n", f.client.Attempts())
		f.tel.WritePrometheus(w)
		telemetry.WriteRuntimeMetrics(w)
	})
	return mux
}

// writeBackendGauges renders the per-backend rotation series from the
// same snapshot GET /v1/stats serves.
func writeBackendGauges(w io.Writer, f *Front) {
	st := f.Stats()
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP taskdrop_router_backend_up Backend rotation membership (1 = ready).\n")
	p("# TYPE taskdrop_router_backend_up gauge\n")
	for _, b := range st.Backends {
		up := 0
		if b.Ready {
			up = 1
		}
		p("taskdrop_router_backend_up{backend=\"%d\"} %d\n", b.Backend, up)
	}
	p("# HELP taskdrop_router_backend_degraded Backend routing exclusion (1 = unreachable or zero live machines).\n")
	p("# TYPE taskdrop_router_backend_degraded gauge\n")
	for _, b := range st.Backends {
		deg := 0
		if b.Degraded {
			deg = 1
		}
		p("taskdrop_router_backend_degraded{backend=\"%d\"} %d\n", b.Backend, deg)
	}
	p("# HELP taskdrop_router_backend_inflight In-flight decide sub-requests per backend.\n")
	p("# TYPE taskdrop_router_backend_inflight gauge\n")
	for _, b := range st.Backends {
		p("taskdrop_router_backend_inflight{backend=\"%d\"} %d\n", b.Backend, b.Inflight)
	}
	p("# HELP taskdrop_router_proxy_requests_total Decide sub-requests proxied per backend.\n")
	p("# TYPE taskdrop_router_proxy_requests_total counter\n")
	for _, b := range st.Backends {
		p("taskdrop_router_proxy_requests_total{backend=\"%d\"} %d\n", b.Backend, b.Proxied)
	}
	p("# HELP taskdrop_router_backend_queue_mass Last-polled outstanding tasks per backend.\n")
	p("# TYPE taskdrop_router_backend_queue_mass gauge\n")
	for _, b := range st.Backends {
		p("taskdrop_router_backend_queue_mass{backend=\"%d\"} %d\n", b.Backend, b.QueueMass)
	}
	p("# HELP taskdrop_router_backend_free_slots Last-polled open queue slots per backend.\n")
	p("# TYPE taskdrop_router_backend_free_slots gauge\n")
	for _, b := range st.Backends {
		p("taskdrop_router_backend_free_slots{backend=\"%d\"} %d\n", b.Backend, b.FreeSlots)
	}
}

// decideError maps front errors onto HTTP statuses: window shed → 429
// with a Retry-After hint, no capacity / draining → 503, upstream
// failures → 502, anything else (validation) → 400.
func decideError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrWindowFull):
		w.Header().Set("Retry-After", "1")
		service.WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrNoBackends), errors.Is(err, ErrDraining):
		service.WriteError(w, http.StatusServiceUnavailable, err)
	case isUpstream(err):
		service.WriteError(w, http.StatusBadGateway, err)
	default:
		service.WriteError(w, http.StatusBadRequest, err)
	}
}

// isUpstream reports whether err came back from a backend call rather
// than from request validation.
func isUpstream(err error) bool {
	var he *service.HTTPError
	return errors.As(err, &he) || errors.Is(err, errUpstream)
}

// errUpstream marks fan-out failures that wrapped a transport error.
var errUpstream = errors.New("front: upstream failure")
