package front

import (
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"

	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// upstreamBuckets are the upper bounds (seconds) of the upstream
// round-trip histogram. A proxied decide pays network + JSON + the
// backend's own decision latency, so the buckets sit an order of
// magnitude above the in-process decision histogram.
var upstreamBuckets = []float64{
	500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
}

// metrics aggregates the router tier's operational counters.
type metrics struct {
	requests atomic.Int64 // decide requests accepted for routing
	rejected atomic.Int64 // malformed requests rejected before routing
	shed     atomic.Int64 // requests shed on a full in-flight window (429)
	reroutes atomic.Int64 // sub-batches rerouted off a failed backend
	// The merged decisions, by action.
	service.ActionCounts
	// upstream is the upstream decide round-trip, per sub-request.
	upstream *telemetry.Histogram
}

func newMetrics() *metrics {
	return &metrics{upstream: telemetry.NewHistogram(upstreamBuckets)}
}

func (m *metrics) write(x *telemetry.Writer) {
	x.Counter("taskdrop_router_requests_total", "Decide requests accepted for routing.").Int(m.requests.Load())
	x.Counter("taskdrop_router_rejected_total", "Requests rejected before routing (validation).").Int(m.rejected.Load())
	x.Counter("taskdrop_router_shed_total", "Requests shed on a full backend in-flight window (HTTP 429).").Int(m.shed.Load())
	x.Counter("taskdrop_router_reroutes_total", "Sub-batches rerouted off a failed backend.").Int(m.reroutes.Load())
	x.Counter("taskdrop_router_decisions_total", "Merged admission decisions by action.")
	m.WriteActions(x)
	x.Histogram("taskdrop_router_upstream_latency_seconds", "Upstream decide round-trip latency (per sub-request, retries included).").Observed(m.upstream)
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
//	GET  /readyz     — 200 once every backend has been polled and at
//	                   least one is in rotation; 503 "booting" before the
//	                   first polls, "no-backends" after them, "draining"
//	GET  /metrics    — Prometheus text exposition (taskdrop_router_*)
//	GET  /debug/traces — retained route→proxy→ack traces
//
// Client-supplied DecisionIDs are deduplicated at this tier exactly as a
// single server would (service.DecideHandler): a retry replays the
// originally acknowledged bytes. A fan-out that failed with nothing
// committed releases the ID; one that failed after some sub-batches
// committed spends it (409 on a retry). The sub-IDs are derived from the
// request, so a retry through a restarted router, which splits by class
// the way its original did, replays at the backends instead (see "Fault
// model").
func NewHandler(f *Front) http.Handler {
	mux := http.NewServeMux()
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
		if st := f.readiness(); st != "ok" {
			service.WriteJSON(w, http.StatusServiceUnavailable, &service.ReadyResponse{Status: st})
			return
		}
		service.WriteJSON(w, http.StatusOK, &service.ReadyResponse{Ready: true, Status: "ok"})
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, f.tel.Traces())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		x := telemetry.NewWriter(w)
		f.metrics.write(x)
		writeBackendGauges(x, f)
		x.Counter("taskdrop_router_dedup_hits_total", "Duplicate decision-ID requests served from the router's dedup window.").Int(f.dedup.Hits())
		x.Gauge("taskdrop_router_dedup_entries", "Decision IDs currently retained in the router's dedup window.").Int(int64(f.dedup.Len()))
		x.Gauge("taskdrop_router_dedup_capacity", "Decision IDs the router's dedup window retains at most.").Int(service.DefaultDedupWindow)
		x.Counter("taskdrop_router_upstream_attempts_total", "Upstream HTTP attempts (first tries and retries).").Int(f.client.Attempts())
		f.tel.WritePrometheus(x)
		telemetry.WriteRuntimeMetrics(x)
	})
	return service.MountDecide(mux, service.DecideHandler("front", f.decider, f.dedup, decideError, &f.metrics.rejected, nil))
}

// writeBackendGauges renders the per-backend rotation series from the
// same snapshot GET /v1/stats serves.
func writeBackendGauges(x *telemetry.Writer, f *Front) {
	backends := f.Stats().Backends
	perBackend := func(v func(b *BackendStatus) int64) {
		for i := range backends {
			x.Int(v(&backends[i]), "backend", strconv.Itoa(backends[i].Backend))
		}
	}
	x.Gauge("taskdrop_router_backend_up", "Backend rotation membership (1 = ready).")
	perBackend(func(b *BackendStatus) int64 {
		if b.Ready {
			return 1
		}
		return 0
	})
	x.Gauge("taskdrop_router_backend_inflight", "In-flight decide sub-requests per backend.")
	perBackend(func(b *BackendStatus) int64 { return int64(b.Inflight) })
	x.Counter("taskdrop_router_proxy_requests_total", "Decide sub-requests proxied per backend.")
	perBackend(func(b *BackendStatus) int64 { return b.Proxied })
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
