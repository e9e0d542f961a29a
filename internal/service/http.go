package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/hpcclab/taskdrop/internal/journal"
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
//	GET  /readyz     — readiness: 200 once serving, 503 while draining
//	                   (cmd/hcserve additionally 503s during journal
//	                   recovery and shard boot; the router tier gates on it)
//	GET  /metrics    — Prometheus text exposition (aggregate + per-shard)
//	GET  /debug/traces — retained stage-timed decision traces (JSON; empty
//	                   unless Config.TraceSample > 0)
//
// Requests carrying a DecisionID are idempotent: the first request with an
// ID executes and its acknowledged bytes are retained in the controller's
// dedup window; a retry of the same ID replays those exact bytes. A
// duplicate whose task count disagrees with the original — or whose batch
// recovery found torn by a crash — gets 409 Conflict.
func NewHandler(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/decide", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var req DecideRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDecideBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			c.metrics.rejected.Add(1)
			WriteError(w, http.StatusBadRequest, fmt.Errorf("service: bad decide body: %w", err))
			return
		}
		if id := req.DecisionID; id != "" && c.dedup != nil {
			e, owner := c.dedup.Begin(id)
			if !owner {
				// Duplicate: wait out a concurrent first attempt if need be,
				// then replay the original acknowledged bytes.
				data, n, err := e.Await(r.Context())
				if err != nil {
					WriteError(w, http.StatusConflict, fmt.Errorf("service: duplicate decision id %q: %w", id, err))
					return
				}
				if n != len(req.Tasks) {
					WriteError(w, http.StatusConflict, fmt.Errorf(
						"service: decision id %q was acknowledged for %d tasks, retried with %d", id, n, len(req.Tasks)))
					return
				}
				WriteRawJSON(w, http.StatusOK, data)
				return
			}
			resp, err := c.Decide(r.Context(), &req)
			if err != nil {
				// A failed Decide left no engine state behind: release the ID
				// so a retry re-executes.
				c.dedup.Fail(id, err)
				decideError(w, err)
				return
			}
			data, err := json.Marshal(resp)
			if err != nil {
				c.dedup.Fail(id, err)
				WriteError(w, http.StatusInternalServerError, err)
				return
			}
			data = append(data, '\n')
			// Commit the exact bytes being acknowledged — what makes a
			// replayed duplicate byte-identical to the original response.
			c.dedup.Commit(id, data, len(req.Tasks))
			c.metrics.ObserveLatency(time.Since(start))
			WriteRawJSON(w, http.StatusOK, data)
			return
		}
		resp, err := c.Decide(r.Context(), &req)
		if err != nil {
			decideError(w, err)
			return
		}
		c.metrics.ObserveLatency(time.Since(start))
		WriteJSON(w, http.StatusOK, resp)
	})
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
			case errors.Is(err, ErrDraining):
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
		if c.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, &ReadyResponse{Status: "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, &ReadyResponse{Ready: true, Status: "ok"})
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, c.Traces())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.metrics.WritePrometheus(w)
		writeShardGauges(w, c)
		writeMembershipGauges(w, c)
		writeCalcMetrics(w, c)
		c.tel.WritePrometheus(w)
		telemetry.WriteRuntimeMetrics(w)
		if c.jmetrics != nil {
			writeJournalMetrics(w, c)
		}
		if c.dedup != nil {
			fmt.Fprintf(w, "# HELP taskdrop_dedup_hits_total Duplicate decision-ID requests served from the dedup window.\n")
			fmt.Fprintf(w, "# TYPE taskdrop_dedup_hits_total counter\n")
			fmt.Fprintf(w, "taskdrop_dedup_hits_total %d\n", c.dedup.Hits())
			fmt.Fprintf(w, "# HELP taskdrop_dedup_entries Decision IDs currently retained in the dedup window.\n")
			fmt.Fprintf(w, "# TYPE taskdrop_dedup_entries gauge\n")
			fmt.Fprintf(w, "taskdrop_dedup_entries %d\n", c.dedup.Len())
		}
		// Engine gauges come from the decision loops; skip them once drained
		// (counters above still tell the whole story).
		if snap, err := c.Stats(r.Context()); err == nil {
			writeEngineGauges(w, c, snap)
		} else if res, ok := c.FinalResult(); ok {
			fmt.Fprintf(w, "# HELP taskdrop_final_robustness_pct Robustness of the drained run.\n")
			fmt.Fprintf(w, "# TYPE taskdrop_final_robustness_pct gauge\n")
			fmt.Fprintf(w, "taskdrop_final_robustness_pct %g\n", res.RobustnessPct)
		}
	})
	return mux
}

// writeShardGauges renders the per-shard series: decision counters from
// each shard's metrics and load/robustness gauges from the lock-free
// router views — none of it goes through a decision loop, so the scrape
// stays cheap and never stalls behind admission work.
func writeShardGauges(w http.ResponseWriter, c *Controller) {
	fmt.Fprintf(w, "# HELP taskdrop_shard_decisions_total Admission decisions by shard and action.\n")
	fmt.Fprintf(w, "# TYPE taskdrop_shard_decisions_total counter\n")
	for _, sh := range c.shards {
		fmt.Fprintf(w, "taskdrop_shard_decisions_total{shard=\"%d\",action=\"map\"} %d\n", sh.id, sh.metrics.mapped.Load())
		fmt.Fprintf(w, "taskdrop_shard_decisions_total{shard=\"%d\",action=\"defer\"} %d\n", sh.id, sh.metrics.deferred.Load())
		fmt.Fprintf(w, "taskdrop_shard_decisions_total{shard=\"%d\",action=\"drop\"} %d\n", sh.id, sh.metrics.dropped.Load())
	}
	fmt.Fprintf(w, "# HELP taskdrop_shard_queue_mass Outstanding tasks per shard (machine queues + deferred batch).\n")
	fmt.Fprintf(w, "# TYPE taskdrop_shard_queue_mass gauge\n")
	for _, sh := range c.shards {
		fmt.Fprintf(w, "taskdrop_shard_queue_mass{shard=\"%d\"} %d\n", sh.id, sh.view.QueueMass())
	}
	fmt.Fprintf(w, "# HELP taskdrop_shard_free_slots Open queue slots per shard.\n")
	fmt.Fprintf(w, "# TYPE taskdrop_shard_free_slots gauge\n")
	for _, sh := range c.shards {
		fmt.Fprintf(w, "taskdrop_shard_free_slots{shard=\"%d\"} %d\n", sh.id, sh.view.FreeSlots())
	}
	fmt.Fprintf(w, "# HELP taskdrop_shard_robustness_estimate Mean expected on-time probability across task classes per shard.\n")
	fmt.Fprintf(w, "# TYPE taskdrop_shard_robustness_estimate gauge\n")
	nt := c.matrix.NumTaskTypes()
	for _, sh := range c.shards {
		sum := 0.0
		for class := 0; class < nt; class++ {
			sum += sh.view.ClassRobustness(class)
		}
		fmt.Fprintf(w, "taskdrop_shard_robustness_estimate{shard=\"%d\"} %g\n", sh.id, sum/float64(nt))
	}
}

// writeMembershipGauges renders the dynamic-membership series: operation
// counts, per-shard live/removed machine census, degraded flags, shed
// (429) counters and rebalancer moves. Everything reads atomics or the
// lock-free router views — no decision loop is touched.
func writeMembershipGauges(w io.Writer, c *Controller) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP taskdrop_membership_ops_total Membership operations applied, by op.\n")
	p("# TYPE taskdrop_membership_ops_total counter\n")
	p("taskdrop_membership_ops_total{op=\"add\"} %d\n", c.memberOps[journal.MemberAdd].Load())
	p("taskdrop_membership_ops_total{op=\"remove\"} %d\n", c.memberOps[journal.MemberRemove].Load())
	p("taskdrop_membership_ops_total{op=\"revive\"} %d\n", c.memberOps[journal.MemberRevive].Load())
	p("# HELP taskdrop_membership_live_machines Machines currently in the live set, per shard.\n")
	p("# TYPE taskdrop_membership_live_machines gauge\n")
	for _, sh := range c.shards {
		p("taskdrop_membership_live_machines{shard=\"%d\"} %d\n", sh.id, sh.liveMachines.Load())
	}
	p("# HELP taskdrop_membership_removed_machines Machines currently removed from the live set, per shard.\n")
	p("# TYPE taskdrop_membership_removed_machines gauge\n")
	for _, sh := range c.shards {
		p("taskdrop_membership_removed_machines{shard=\"%d\"} %d\n", sh.id, sh.removedMachines.Load())
	}
	p("# HELP taskdrop_membership_degraded Whether the shard has no live machines (sheds with 429).\n")
	p("# TYPE taskdrop_membership_degraded gauge\n")
	for _, sh := range c.shards {
		d := 0
		if sh.liveMachines.Load() == 0 {
			d = 1
		}
		p("taskdrop_membership_degraded{shard=\"%d\"} %d\n", sh.id, d)
	}
	p("# HELP taskdrop_membership_shed_total Decide sub-batches shed by a degraded shard (HTTP 429).\n")
	p("# TYPE taskdrop_membership_shed_total counter\n")
	for _, sh := range c.shards {
		p("taskdrop_membership_shed_total{shard=\"%d\"} %d\n", sh.id, sh.metrics.shed.Load())
	}
	p("# HELP taskdrop_rebalance_moves_total Machines migrated between shards by the rebalancer.\n")
	p("# TYPE taskdrop_rebalance_moves_total counter\n")
	p("taskdrop_rebalance_moves_total %d\n", c.rebalanceMoves.Load())
}

// writeEngineGauges renders the live queue-state gauges.
func writeEngineGauges(w http.ResponseWriter, c *Controller, snap Snapshot) {
	machines := c.matrix.Machines()
	fmt.Fprintf(w, "# HELP taskdrop_virtual_clock_ticks The server's virtual clock.\n")
	fmt.Fprintf(w, "# TYPE taskdrop_virtual_clock_ticks gauge\n")
	fmt.Fprintf(w, "taskdrop_virtual_clock_ticks %d\n", snap.Now)
	fmt.Fprintf(w, "# HELP taskdrop_queue_depth Tasks queued per machine (incl. running).\n")
	fmt.Fprintf(w, "# TYPE taskdrop_queue_depth gauge\n")
	for i, d := range snap.QueueDepths {
		name := c.machineName(i)
		if i < len(machines) {
			name = machines[i].Name
		}
		fmt.Fprintf(w, "taskdrop_queue_depth{machine=\"%d\",name=%q} %d\n", i, name, d)
	}
	fmt.Fprintf(w, "# HELP taskdrop_tasks Live task census by state.\n")
	fmt.Fprintf(w, "# TYPE taskdrop_tasks gauge\n")
	fmt.Fprintf(w, "taskdrop_tasks{state=\"batch\"} %d\n", snap.Live.Batch)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"queued\"} %d\n", snap.Live.Queued)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"running\"} %d\n", snap.Live.Running)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"on_time\"} %d\n", snap.Live.OnTime)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"late\"} %d\n", snap.Live.Late)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"dropped_reactive\"} %d\n", snap.Live.DroppedReactive)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"dropped_proactive\"} %d\n", snap.Live.DroppedProactive)
	fmt.Fprintf(w, "taskdrop_tasks{state=\"failed\"} %d\n", snap.Live.Failed)
}

// decideStatus maps controller errors onto HTTP statuses.
func decideStatus(err error) int {
	if errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, ErrShardDegraded) {
		return http.StatusTooManyRequests
	}
	return http.StatusBadRequest
}

// decideError writes one failed decide. A degraded-shard shed carries a
// Retry-After so well-behaved clients pace their retries.
func decideError(w http.ResponseWriter, err error) {
	code := decideStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, code, err)
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes err as the JSON error body every taskdrop HTTP surface
// (this handler, the front tier's) answers failures with.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, errorBody{Error: err.Error()})
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteRawJSON writes pre-encoded JSON bytes (already newline-terminated)
// — the dedup path, where the response must be byte-identical to the
// original acknowledgement.
func WriteRawJSON(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(data)
}
