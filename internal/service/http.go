package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// maxDecideBody bounds a decide request body (a 10k-task batch is ~1 MB).
const maxDecideBody = 16 << 20

// NewHandler wires the controller's HTTP surface:
//
//	POST /v1/decide  — batch admission decisions (routed across shards)
//	POST /v1/drain   — graceful drain (all shards concurrently); returns
//	                   the merged final Result
//	GET  /v1/stats   — per-shard queue depths, robustness estimates and
//	                   drop counts
//	GET  /healthz    — liveness + served (profile, mapper, dropper,
//	                   shards, router, partition)
//	GET  /readyz     — 200 once serving, else 503 with why (ReadyResponse:
//	                   draining, journal failed, every shard at zero live
//	                   machines; cmd/hcserve adds booting) — the router
//	                   tier's one probe of a backend
//	GET  /metrics    — Prometheus text exposition (aggregate + per-shard)
//	GET  /debug/traces — retained stage-timed decision traces (JSON; empty
//	                   unless Config.TraceSample > 0)
//
// Requests carrying a DecisionID are idempotent within the controller's
// dedup window (see DecideHandler).
func NewHandler(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admin/machines", func(w http.ResponseWriter, r *http.Request) {
		var req AdminMachineRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("service: bad admin body: %w", err))
			return
		}
		resp, err := c.Admin(r.Context(), &req)
		if err != nil {
			switch {
			case errors.Is(err, ErrDraining), errors.Is(err, ErrJournalFailed):
				WriteError(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, errAdminConflict):
				WriteError(w, http.StatusConflict, err)
			default:
				WriteError(w, http.StatusBadRequest, err)
			}
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		res, err := c.Drain(r.Context())
		if err != nil {
			WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		WriteJSON(w, http.StatusOK, &DrainResponse{Result: res})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		shards, err := c.ShardStats(r.Context())
		if err != nil {
			WriteError(w, http.StatusServiceUnavailable, err)
			return
		}
		WriteJSON(w, http.StatusOK, &StatsResponse{Router: c.policy.Name(), Shards: shards})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := StatusResponse{
			Status:    "ok",
			Profile:   c.cfg.Profile,
			Mapper:    c.cfg.Mapper,
			Dropper:   c.cfg.Dropper,
			Machines:  c.cl.NumMachines(),
			Shards:    len(c.shards),
			Router:    c.policy.Name(),
			Partition: c.cfg.Partition,
		}
		if c.Draining() {
			st.Status = "draining"
		}
		WriteJSON(w, http.StatusOK, &st)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if st := c.readiness(); st != "ok" {
			WriteJSON(w, http.StatusServiceUnavailable, &ReadyResponse{Status: st})
			return
		}
		WriteJSON(w, http.StatusOK, &ReadyResponse{Ready: true, Status: "ok"})
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, c.Traces())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		x := telemetry.NewWriter(w)
		c.writeMetrics(x)
		writeShardGauges(x, c)
		writeMembershipGauges(x, c)
		writeCalcMetrics(x, c)
		c.tel.WritePrometheus(x)
		telemetry.WriteRuntimeMetrics(x)
		if c.fsyncLatency != nil {
			writeJournalMetrics(x, c)
		}
		x.Counter("taskdrop_dedup_hits_total", "Duplicate decision-ID requests served from the dedup window.").Int(c.dedup.Hits())
		x.Gauge("taskdrop_dedup_entries", "Decision IDs currently retained in the dedup window.").Int(int64(c.dedup.Len()))
		x.Gauge("taskdrop_dedup_capacity", "Decision IDs the dedup window retains at most.").Int(DefaultDedupWindow)
		// Engine gauges are read under the shards' turns; skip them once drained
		// (counters above still tell the whole story).
		if snap, err := c.Stats(r.Context()); err == nil {
			writeEngineGauges(x, snap)
		} else if res, ok := c.FinalResult(); ok {
			x.Gauge("taskdrop_final_robustness_pct", "Robustness of the drained run.").Float(res.RobustnessPct)
		}
	})
	return MountDecide(mux, DecideHandler("service", func() DecideFunc { return c.decide }, c.dedup, decideError, &c.rejected, c.latency))
}

// DecideHandler is POST /v1/decide for both tiers — a shard server over
// Controller.Decide, the router over Front.Decide — and the one place the
// exactly-once protocol is written: the first request under a DecisionID
// owns execution and commits the exact bytes it acknowledges to dedup; a
// duplicate waits out an in-flight owner and replays those bytes, or gets
// 409 when the original was acknowledged for a different task count, failed
// while the duplicate waited, or took effect in part (failed after some
// sub-batches committed: FanOut). Any other failed
// decide left no state behind, so it releases the ID and a retry
// re-executes. tier prefixes the handler's own error texts; decider hands
// each connection the DecideFunc it decides with, so a tier can keep
// storage per connection; fail maps a decide error onto the tier's status;
// rejected counts bodies refused before decide; latency (nil for a tier
// that keeps none) observes receipt-to-decision time of executed requests.
//
// The route has two entries: ServeHTTP, for a request net/http's reader
// built, and the one Server takes for a plain request it read in place
// (MountDecide). Both read the whole body and hand it to serve.
func DecideHandler(
	tier string,
	decider func() DecideFunc,
	dedup *DedupWindow,
	fail func(http.ResponseWriter, error),
	rejected *atomic.Int64,
	latency *telemetry.Histogram,
) *Decider {
	return &Decider{tier: tier, decider: decider, dedup: dedup, fail: fail, rejected: rejected, latency: latency}
}

// A DecideFunc is a tier's decide: it answers req into resp, whose
// Decisions storage it may reuse; on an error resp holds nothing to read.
type DecideFunc func(context.Context, *DecideRequest, *DecideResponse) error

// Decider is a tier's POST /v1/decide (DecideHandler).
type Decider struct {
	tier     string
	decider  func() DecideFunc
	dedup    *DedupWindow
	fail     func(http.ResponseWriter, error)
	rejected *atomic.Int64
	latency  *telemetry.Histogram
}

// decideScratch is what one decide exchange decodes into, decides with and
// encodes from. Server keeps one per connection; the net/http entry uses a
// fresh one.
type decideScratch struct {
	req  DecideRequest
	resp DecideResponse
	out  []byte
	// ans is where an answer's compact form is encoded before the dedup
	// window takes its copy.
	ans []byte
	// decide is the tier's decide for this connection, made by from.
	from   *Decider
	decide DecideFunc
}

// ServeHTTP reads the body — pre-sized from Content-Length, bounded by
// maxDecideBody — and serves it. (The server then discards what is left of
// a body over the bound, up to maxUnreadBody, or closes the connection.)
func (d *Decider) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	data, err := readBody(nil, http.MaxBytesReader(w, r.Body, maxDecideBody), r.ContentLength)
	d.serve(r.Context(), w, new(decideScratch), data, err, start)
}

// serve answers the decide request whose body is data — all of it, or what
// was read before the read failed with readErr — received at start,
// decoding into and encoding from x. Only what outlives the exchange is
// copied out of x: the answer the dedup window keeps.
func (d *Decider) serve(ctx context.Context, w http.ResponseWriter, x *decideScratch, data []byte, readErr error, start time.Time) {
	req := &x.req
	if err := decodeBody(data, readErr, req); err != nil {
		d.rejected.Add(1)
		WriteError(w, http.StatusBadRequest, fmt.Errorf("%s: bad decide body: %w", d.tier, err))
		return
	}
	id := req.DecisionID
	owner := false
	if id != "" {
		var e *dedupEntry
		if e, owner = d.dedup.Begin(id); !owner {
			data, n, err := e.Await(ctx)
			switch {
			case err != nil:
				WriteError(w, http.StatusConflict, fmt.Errorf("%s: duplicate decision id %q: %w", d.tier, id, err))
			case n != len(req.Tasks):
				WriteError(w, http.StatusConflict, fmt.Errorf(
					"%s: decision id %q was acknowledged for %d tasks, retried with %d", d.tier, id, n, len(req.Tasks)))
			default:
				if err := readAnswer(data, &x.resp); err != nil {
					d.fail(w, err)
					return
				}
				x.out = append(appendDecideResponse(x.out[:0], &x.resp), '\n')
				WriteRawJSON(w, http.StatusOK, x.out)
			}
			return
		}
	}
	if x.from != d {
		x.from, x.decide = d, d.decider()
	}
	if err := x.decide(ctx, req, &x.resp); err != nil {
		switch {
		case !owner:
		case errors.Is(err, errPartialCommit):
			d.dedup.Poison(id, err)
		default:
			d.dedup.Fail(id, err)
		}
		d.fail(w, err)
		return
	}
	x.out = append(appendDecideResponse(x.out[:0], &x.resp), '\n')
	if owner {
		// The answer being acknowledged, from which a replayed duplicate's
		// bytes are rendered the same way.
		x.ans = appendAnswer(x.ans[:0], &x.resp)
		d.dedup.Commit(id, bytes.Clone(x.ans), len(req.Tasks))
	}
	if d.latency != nil {
		d.latency.Observe(time.Since(start))
	}
	WriteRawJSON(w, http.StatusOK, x.out)
}

// decodeBody decodes a decide body into req (decodeDecideRequest). When
// the read failed, a body over the bound included, encoding/json gets the
// bytes read and then the error: what the streaming decoder reading the
// body before saw, so a first value complete within the bound still
// decodes and anything else answers with the read error.
func decodeBody(data []byte, readErr error, req *DecideRequest) error {
	if readErr != nil {
		*req = DecideRequest{}
		return decodeStrict(io.MultiReader(bytes.NewReader(data), errReader{readErr}), req)
	}
	return decodeDecideRequest(data, req)
}

// readBody reads r to EOF into buf's storage (nil: a new buffer), grown
// once from size, the length the sender declared (-1: unknown; sizes over
// maxDecideBody are not trusted for the allocation).
func readBody(buf []byte, r io.Reader, size int64) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	if size > 0 && size <= maxDecideBody {
		b.Grow(int(size) + bytes.MinRead)
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// writeShardGauges renders the per-shard series: decision counters from
// each shard's metrics and the robustness gauge from the lock-free router
// views — none of it takes a shard's turn, so the scrape stays cheap and
// never stalls behind admission work.
func writeShardGauges(x *telemetry.Writer, c *Controller) {
	x.Counter("taskdrop_shard_decisions_total", "Admission decisions by shard and action.")
	for _, sh := range c.shards {
		sh.metrics.WriteActions(x, "shard", strconv.Itoa(sh.id))
	}
	x.Gauge("taskdrop_shard_robustness_estimate", "Per-shard mean over task classes of the per-class EWMA of the Eq. 2 success forecast made at admission; a forecast, not an observed on-time share.")
	nt := c.matrix.NumTaskTypes()
	for _, sh := range c.shards {
		sum := 0.0
		for class := 0; class < nt; class++ {
			sum += sh.view.ClassRobustness(class)
		}
		x.Float(sum/float64(nt), "shard", strconv.Itoa(sh.id))
	}
}

// writeMembershipGauges renders the dynamic-membership series: operation
// counts, per-shard live/removed machine census, degraded flags and shed
// (429) counters. Everything reads atomics or the lock-free router views —
// no shard's turn is taken.
func writeMembershipGauges(x *telemetry.Writer, c *Controller) {
	x.Counter("taskdrop_membership_ops_total", "Membership operations applied, by op.")
	for k := range c.memberOps {
		x.Int(c.memberOps[k].Load(), "op", sim.MemberKind(k).String())
	}
	x.Gauge("taskdrop_membership_live_machines", "Machines currently in the live set, per shard.")
	for _, sh := range c.shards {
		x.Int(sh.liveMachines.Load(), "shard", strconv.Itoa(sh.id))
	}
	x.Gauge("taskdrop_membership_removed_machines", "Machines currently removed from the live set, per shard.")
	for _, sh := range c.shards {
		x.Int(sh.removedMachines.Load(), "shard", strconv.Itoa(sh.id))
	}
	x.Gauge("taskdrop_membership_degraded", "Whether the shard has no live machines (sheds with 429).")
	for _, sh := range c.shards {
		var d int64
		if sh.view.Down() {
			d = 1
		}
		x.Int(d, "shard", strconv.Itoa(sh.id))
	}
	x.Counter("taskdrop_membership_shed_total", "Decide sub-batches shed by a degraded shard (HTTP 429).")
	for _, sh := range c.shards {
		x.Int(sh.metrics.shed.Load(), "shard", strconv.Itoa(sh.id))
	}
}

// writeEngineGauges renders the live queue-state gauges.
func writeEngineGauges(x *telemetry.Writer, snap Snapshot) {
	x.Gauge("taskdrop_virtual_clock_ticks", "The server's virtual clock.").Int(int64(snap.Now))
	x.Gauge("taskdrop_queue_depth", "Tasks queued per machine (incl. running).")
	for _, q := range snap.Queues {
		x.Int(int64(q.Depth), "machine", strconv.Itoa(q.Machine), "name", q.Name)
	}
	x.Gauge("taskdrop_tasks", "Live task census by state.")
	x.Int(int64(snap.Live.Batch), "state", "batch")
	x.Int(int64(snap.Live.Queued), "state", "queued")
	x.Int(int64(snap.Live.Running), "state", "running")
	x.Int(int64(snap.Live.OnTime), "state", "on_time")
	x.Int(int64(snap.Live.Late), "state", "late")
	x.Int(int64(snap.Live.DroppedReactive), "state", "dropped_reactive")
	x.Int(int64(snap.Live.DroppedProactive), "state", "dropped_proactive")
	x.Int(int64(snap.Live.Failed), "state", "failed")
}

// decideError maps controller errors onto HTTP statuses: draining or a
// failed journal → 503, a degraded-shard shed → 429 with a Retry-After so
// well-behaved clients pace their retries, anything else (validation) → 400.
func decideError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining), errors.Is(err, ErrJournalFailed):
		WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrShardDegraded):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err)
	default:
		WriteError(w, http.StatusBadRequest, err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes err as the JSON error body every taskdrop HTTP surface
// (this handler, the front tier's) answers failures with.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorBody{Error: err.Error()})
}

// jsonContentType is the Content-Type of every JSON answer, one slice
// shared by their header maps (a header's values are replaced, never
// written in place), so setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteRawJSON writes pre-encoded JSON bytes (already newline-terminated)
// — the dedup path, where the response must be byte-identical to the
// original acknowledgement.
func WriteRawJSON(w http.ResponseWriter, code int, data []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(data)
}
