package service

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
)

// Wire types of the admission service's HTTP API. JSON tags follow the
// snake_case convention of sim.Result / runner.Aggregate so server
// responses, offline trial dumps and experiment CSVs share one vocabulary.

// TaskSpec is one arriving task in a decide request. Times are absolute
// ticks (1 ms) on the client's trace clock; the server's virtual clock
// follows the arrival ticks it is fed, which is what makes a replayed
// trace reproduce the offline simulation exactly.
type TaskSpec struct {
	// ID is an optional client-chosen label echoed back in the decision.
	ID string `json:"id,omitempty"`
	// Type is the task's PET row.
	Type int `json:"type"`
	// Arrival is the task's arrival tick. Arrivals must be non-decreasing
	// across requests; an arrival behind the server clock is treated as
	// arriving now.
	Arrival pmf.Tick `json:"arrival"`
	// Deadline is the task's absolute hard deadline tick.
	Deadline pmf.Tick `json:"deadline"`
	// ExecByType optionally carries the realized execution time per machine
	// type (as pre-drawn in a workload trace). When omitted the server
	// falls back to the PET cell means, which keeps the run deterministic
	// but loses execution-time variance.
	ExecByType []pmf.Tick `json:"exec_by_type,omitempty"`
}

// DecideRequest is the body of POST /v1/decide: a batch of tasks arriving
// in order.
type DecideRequest struct {
	// DecisionID, when set, makes the request idempotent: the server
	// journals it with the batch, remembers the response in a bounded dedup
	// window, and answers a repeat of the same ID with the byte-identical
	// original decisions instead of re-admitting. This is what lets a
	// client (or the router tier) retry a timed-out request at-least-once
	// without double-feeding the engine.
	DecisionID string     `json:"decision_id,omitempty"`
	Tasks      []TaskSpec `json:"tasks"`
}

// Action is the admission outcome for one arriving task.
type Action string

// The three admission outcomes.
const (
	// ActionMap: admitted and assigned to a machine queue.
	ActionMap Action = "map"
	// ActionDefer: not admitted now (every queue slot is full); the server
	// keeps the task in its batch and maps or drops it at a later event.
	ActionDefer Action = "defer"
	// ActionDrop: rejected — the task's deadline (plus grace) had already
	// passed at arrival, so per Eq. 1 it can deliver no value.
	ActionDrop Action = "drop"
)

// Decision is the admission outcome of one task.
type Decision struct {
	ID string `json:"id,omitempty"`
	// Seq is the server-assigned arrival sequence number (0-based,
	// cluster-wide).
	Seq    int    `json:"seq"`
	Action Action `json:"action"`
	// Shard is the admission shard the task was routed to (0 on an
	// unsharded server).
	Shard int `json:"shard"`
	// Backend is the shard-server process the router tier proxied the task
	// to (0 when decided in-process). Sequence numbers are per backend, so
	// behind a router tier a decision's identity is (backend, seq).
	Backend int `json:"backend,omitempty"`
	// Machine is the admitted machine's matrix-wide index, or -1 when not
	// mapped.
	Machine     int    `json:"machine"`
	MachineName string `json:"machine_name,omitempty"`
}

// DecideResponse is the body returned by POST /v1/decide.
type DecideResponse struct {
	// Now is the server's virtual clock after processing the batch.
	Now       pmf.Tick   `json:"now"`
	Decisions []Decision `json:"decisions"`
}

// DrainResponse is the body returned by POST /v1/drain: the final trial
// accounting after every queued task has executed or been dropped.
type DrainResponse struct {
	Result *sim.Result `json:"result"`
}

// StatusResponse is the body returned by GET /healthz.
type StatusResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Profile  string `json:"profile"`
	Mapper   string `json:"mapper"`
	Dropper  string `json:"dropper"`
	Machines int    `json:"machines"`
	Shards   int    `json:"shards"`
	Router   string `json:"router"`
	// Partition is the machine partition this server owns ("k/K", empty
	// when the server owns the whole matrix). Machines counts only the
	// owned partition.
	Partition string `json:"partition,omitempty"`
}

// ReadyResponse is the body returned by GET /readyz: 200 with Ready and
// Status "ok" while serving, else 503 with Status "booting" (journal
// recovery, shard start), "draining", "journal-failed" (fail-stop until a
// restart) or "degraded" (every shard at zero live machines, until a
// revive or an add). The router tier keeps a backend in rotation only
// while it answers 200; its own /readyz adds "no-backends".
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Status string `json:"status"`
}

// ShardSnapshot is one shard's entry in GET /v1/stats: the live engine
// state read under the shard's turn (its load is Live and QueueDepths), the
// lock-free router view's per-class robustness estimates, and the shard's
// decision counters.
type ShardSnapshot struct {
	Shard int      `json:"shard"`
	Now   pmf.Tick `json:"now"`
	Live  sim.Live `json:"live"`
	// QueueDepths[i] is the queue length (incl. running) of the shard's
	// i-th local machine; Machines[i] is that machine's matrix-wide index.
	QueueDepths []int `json:"queue_depths"`
	Machines    []int `json:"machines"`
	// LiveMachines is the shard's live machine count; Removed lists the
	// matrix-wide indexes currently removed from the live set (dynamic
	// membership, POST /v1/admin/machines).
	LiveMachines int   `json:"live_machines"`
	Removed      []int `json:"removed_machines,omitempty"`
	// Robustness[class] is the shard's expected on-time probability for
	// the task class (EWMA of admission-time chances of success).
	Robustness []float64 `json:"robustness_by_class"`
	// Decision counters since start.
	Requests int64 `json:"requests"`
	Mapped   int64 `json:"mapped"`
	Deferred int64 `json:"deferred"`
	Dropped  int64 `json:"dropped"`
	// SeqWatermark is the highest cluster-wide sequence number the shard
	// has decided (-1 before the first decision). It survives restarts:
	// the journal checkpoints it so recovered servers never reissue a
	// sequence number.
	SeqWatermark int64 `json:"seq_watermark"`
}

// StatsResponse is the body returned by GET /v1/stats.
type StatsResponse struct {
	Router string          `json:"router"`
	Shards []ShardSnapshot `json:"shards"`
}

// Validate checks one task spec against the served system.
func (t *TaskSpec) Validate(numTaskTypes, numMachineTypes int) error {
	if t.Type < 0 || t.Type >= numTaskTypes {
		return fmt.Errorf("service: task type %d out of range [0,%d)", t.Type, numTaskTypes)
	}
	if t.Arrival < 0 {
		return fmt.Errorf("service: negative arrival %d", t.Arrival)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("service: negative deadline %d", t.Deadline)
	}
	if len(t.ExecByType) != 0 && len(t.ExecByType) != numMachineTypes {
		return fmt.Errorf("service: exec_by_type has %d entries, want %d (or none)",
			len(t.ExecByType), numMachineTypes)
	}
	for _, x := range t.ExecByType {
		if x < 1 {
			return fmt.Errorf("service: exec_by_type entry %d, want >= 1", x)
		}
	}
	return nil
}
