package service

import (
	"context"
	"errors"
	"fmt"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
)

// Dynamic membership: POST /v1/admin/machines changes a running
// controller's machine set. Each operation executes under the target
// shard's turn — serialized against admissions exactly like a decide
// sub-batch — and is journaled as a KindMembership record and committed
// before it is acknowledged, so a crashed server recovers its post-churn
// membership and hcreplay re-derives the decision stream across it.

// ErrShardDegraded is returned for a decide batch routed to a shard with
// no live machines. The HTTP layer maps it to 429 with a Retry-After so
// clients back off and retry instead of wedging behind a shard that can
// run nothing.
var ErrShardDegraded = errors.New("service: shard has no live machines")

// errAdminConflict marks a membership operation rejected by the engine's
// current state (machine already removed, not removed, ...) — 409 on the
// wire, distinguishing it from malformed requests (400).
var errAdminConflict = errors.New("service: membership conflict")

// AdminMachineRequest is the body of POST /v1/admin/machines.
type AdminMachineRequest struct {
	// Op is "add", "remove" or "revive" (sim.MemberKind's names).
	Op string `json:"op"`
	// Machine is the matrix-wide index of the machine to remove or revive:
	// its position in the profile's machine list, or the index the add
	// that created it answered with (sim.Cluster.Global has the rule).
	Machine int `json:"machine,omitempty"`
	// Shard is the shard a new machine joins (add only).
	Shard int `json:"shard,omitempty"`
	// Type is the new machine's type (add only; must be a type the served
	// profile already prices).
	Type int `json:"type,omitempty"`
	// Handoff controls what removal does with the machine's pending queue:
	// true hands the tasks back to the deferred batch for remapping, false
	// force-drops them as failed.
	Handoff bool `json:"handoff,omitempty"`
}

// AdminMachineResponse is the body returned by POST /v1/admin/machines.
type AdminMachineResponse struct {
	Op string `json:"op"`
	// Shard is the shard the operation executed on.
	Shard int `json:"shard"`
	// Machine is the affected machine's matrix-wide index (for add, the
	// index the new machine was assigned).
	Machine     int    `json:"machine"`
	MachineName string `json:"machine_name,omitempty"`
	// Now is the shard's virtual clock at the operation.
	Now pmf.Tick `json:"now"`
	// LiveMachines is the shard's live machine count afterwards.
	LiveMachines int `json:"live_machines"`
}

// errNotOwned builds the refusal of a matrix-wide index no machine of this
// server holds: another partition's, or a place of the add lattice nothing
// has been added to (yet).
func errNotOwned(g int) error {
	return fmt.Errorf("service: machine %d is not owned by this server", g)
}

// Admin applies one membership operation. The operation runs under the
// target shard's turn, is journaled and committed before the
// acknowledgement, and updates the shard's router view so the routing
// tier steers around (or back to) the changed capacity immediately.
func (c *Controller) Admin(ctx context.Context, req *AdminMachineRequest) (*AdminMachineResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("service: empty admin request")
	}
	if c.Draining() {
		return nil, ErrDraining
	}
	kind, ok := sim.ParseMemberKind(req.Op)
	if !ok {
		return nil, fmt.Errorf("service: admin op %q, want %q, %q or %q", req.Op, sim.MemberAdd, sim.MemberRemove, sim.MemberRevive)
	}
	// The KindMembership record the operation will be logged as: the action
	// code is the kind, NTasks carries the remove handoff flag (1 = pending
	// queue handed back to the batch) and Machine is shard-local.
	rec := journal.Record{Kind: journal.KindMembership, Action: uint8(kind), Type: int32(req.Type)}
	if req.Handoff {
		rec.NTasks = 1
	}
	s, local := req.Shard, 0
	if kind == sim.MemberAdd {
		if s < 0 || s >= len(c.shards) {
			return nil, fmt.Errorf("service: admin shard %d of %d", s, len(c.shards))
		}
		if req.Type < 0 || req.Type >= c.matrix.NumMachineTypes() {
			return nil, fmt.Errorf("service: admin machine type %d of %d", req.Type, c.matrix.NumMachineTypes())
		}
	} else if s, local, ok = c.cl.Locate(req.Machine); !ok {
		return nil, errNotOwned(req.Machine)
	}
	return c.adminOn(ctx, c.shards[s], rec, local)
}

// adminOn executes one validated membership operation under sh's turn: it
// applies the record it logs — the call recovery and replay make on the
// records they read — so the log cannot say one thing and the engine have
// done another; the record is logged once the engine accepts it, ahead of
// its effects. local is the shard-local index Locate derived for a remove
// or revive: any place of the lattice, so it stays an int until the turn's
// holder has checked it against the machines the shard holds.
func (c *Controller) adminOn(ctx context.Context, sh *shard, rec journal.Record, local int) (*AdminMachineResponse, error) {
	var resp *AdminMachineResponse
	var aerr error
	err := sh.do(ctx, func() {
		if sh.journalFailed.Load() {
			aerr = ErrJournalFailed
			return
		}
		kind := sim.MemberKind(rec.Action)
		// Whether the shard holds the machine the index names, which type the
		// record logs for it and which index an add gets, only the turn can say.
		ms := sh.eng.Machines()
		switch {
		case kind == sim.MemberAdd:
			local = len(ms)
		case local >= len(ms):
			aerr = errNotOwned(c.cl.Global(sh.id, local))
			return
		default:
			rec.Type = int32(ms[local].Spec.Type)
		}
		// Membership never moves the clock: the tick is the operation's.
		rec.Machine, rec.Tick = int32(local), sh.eng.Now()
		if err := sh.applyMembership(&rec, func() { sh.emit(&rec) }); err != nil {
			aerr = fmt.Errorf("%w: %v", errAdminConflict, err)
			return
		}
		if sh.jw != nil {
			// Commit-before-ack, like a decide sub-batch: the membership
			// record is durable before the client sees the acknowledgement,
			// so recovery always restores the acknowledged membership.
			if err := sh.commitJournal(); err != nil {
				aerr = err
				return
			}
		}
		sh.publishMembership()
		c.memberOps[kind].Add(1)
		resp = &AdminMachineResponse{
			Op:           kind.String(),
			Shard:        sh.id,
			Machine:      c.cl.Global(sh.id, local),
			MachineName:  sh.eng.Machines()[local].Spec.Name,
			Now:          sh.eng.Now(),
			LiveMachines: sh.eng.LiveMachines(),
		}
	})
	if err != nil {
		return nil, err
	}
	return resp, aerr
}

// applyMembership applies one KindMembership record to the shard's engine —
// the service's one call into the engine's membership; accepted (nil off
// the live path) runs between the engine's checks and the effects. The live
// shard applies the record it logs, recovery and replay the records they
// read: membership records are replay inputs like arrives, and their action
// codes are sim's operation kinds.
func (sh *shard) applyMembership(r *journal.Record, accepted func()) error {
	return sh.eng.ApplyMember(sim.MemberOp{
		Kind:    sim.MemberKind(r.Action),
		Machine: int(r.Machine),
		Type:    pet.MachineType(r.Type),
		Handoff: r.NTasks != 0,
	}, accepted)
}

// publishMembership publishes the shard's membership to its lock-free
// readers: the machine gauges and the view's down bit (no live machine),
// which /readyz, routing and the degraded gauge read. Runs under the
// shard's turn (or during recovery, before New returns).
func (sh *shard) publishMembership() {
	sh.liveMachines.Store(int64(sh.eng.LiveMachines()))
	sh.removedMachines.Store(int64(len(sh.eng.RemovedMachines())))
	sh.view.SetDown(sh.eng.LiveMachines() == 0)
}
