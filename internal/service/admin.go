package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
)

// Dynamic membership: POST /v1/admin/machines changes a running
// controller's machine set. Each operation executes on the target shard's
// decision loop — serialized against admissions exactly like a decide
// sub-batch — and is journaled as a KindMembership record and committed
// before it is acknowledged, so a crashed server recovers its post-churn
// membership and hcreplay re-derives the decision stream across it.

// Admin operations on the wire (AdminMachineRequest.Op).
const (
	AdminOpAdd    = "add"
	AdminOpRemove = "remove"
	AdminOpRevive = "revive"
)

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
	// Op is "add", "remove" or "revive".
	Op string `json:"op"`
	// Machine is the matrix-wide machine index to remove or revive.
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

// machineDir is the controller's directory of every machine it knows by
// matrix-wide index: the profile's machines plus runtime-added ones (which
// get fresh indexes past the matrix). It exists so HTTP goroutines can
// translate global indexes without touching loop-owned shard state.
type machineDir struct {
	mu    sync.Mutex
	names []string
	types []int
	// shardOf/localOf map a global index to its owning shard and the
	// shard-local machine index; shardOf is -1 for machines another
	// partition process owns.
	shardOf []int
	localOf []int
}

func newMachineDir(machines []pet.MachineSpec) *machineDir {
	d := &machineDir{
		names:   make([]string, len(machines)),
		types:   make([]int, len(machines)),
		shardOf: make([]int, len(machines)),
		localOf: make([]int, len(machines)),
	}
	for i, m := range machines {
		d.names[i] = m.Name
		d.types[i] = int(m.Type)
		d.shardOf[i] = -1
		d.localOf[i] = -1
	}
	return d
}

// claim records that shard s owns global machine g at local index.
func (d *machineDir) claim(g, s, local int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.shardOf[g] = s
	d.localOf[g] = local
}

// add registers a runtime-added machine and returns its global index.
func (d *machineDir) add(name string, mt, s, local int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := len(d.names)
	d.names = append(d.names, name)
	d.types = append(d.types, mt)
	d.shardOf = append(d.shardOf, s)
	d.localOf = append(d.localOf, local)
	return g
}

// locate resolves a global index to its owning shard and local index.
func (d *machineDir) locate(g int) (s, local int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if g < 0 || g >= len(d.shardOf) || d.shardOf[g] < 0 {
		return 0, 0, false
	}
	return d.shardOf[g], d.localOf[g], true
}

// name returns the machine's display name ("" when unknown).
func (d *machineDir) name(g int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if g < 0 || g >= len(d.names) {
		return ""
	}
	return d.names[g]
}

// typeOf returns the machine's type (-1 when unknown).
func (d *machineDir) typeOf(g int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if g < 0 || g >= len(d.types) {
		return -1
	}
	return d.types[g]
}

// size returns the number of known machines (matrix + runtime-added).
func (d *machineDir) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.names)
}

// memberActions maps the wire operations onto journal membership actions.
var memberActions = map[string]uint8{
	AdminOpAdd:    journal.MemberAdd,
	AdminOpRemove: journal.MemberRemove,
	AdminOpRevive: journal.MemberRevive,
}

// Admin applies one membership operation. The operation runs on the
// target shard's decision loop, is journaled and committed before the
// acknowledgement, and updates the shard's router view so the routing
// tier steers around (or back to) the changed capacity immediately.
func (c *Controller) Admin(ctx context.Context, req *AdminMachineRequest) (*AdminMachineResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("service: empty admin request")
	}
	if c.Draining() {
		return nil, ErrDraining
	}
	action, ok := memberActions[req.Op]
	if !ok {
		return nil, fmt.Errorf("service: admin op %q, want %q, %q or %q", req.Op, AdminOpAdd, AdminOpRemove, AdminOpRevive)
	}
	// The KindMembership record the operation will be logged as; NTasks
	// carries the remove handoff flag (1 = pending queue handed back to the
	// batch) and Machine is shard-local.
	rec := journal.Record{Kind: journal.KindMembership, Action: action, Type: int32(req.Type)}
	if req.Handoff {
		rec.NTasks = 1
	}
	s := req.Shard
	if action == journal.MemberAdd {
		if s < 0 || s >= len(c.shards) {
			return nil, fmt.Errorf("service: admin shard %d of %d", s, len(c.shards))
		}
		if req.Type < 0 || req.Type >= c.matrix.NumMachineTypes() {
			return nil, fmt.Errorf("service: admin machine type %d of %d", req.Type, c.matrix.NumMachineTypes())
		}
	} else {
		var local int
		if s, local, ok = c.dir.locate(req.Machine); !ok {
			return nil, fmt.Errorf("service: machine %d is not owned by this server", req.Machine)
		}
		rec.Machine, rec.Type = int32(local), int32(c.dir.typeOf(req.Machine))
	}
	return c.adminOn(ctx, c.shards[s], req.Op, rec)
}

// adminOn executes one validated membership operation on sh's loop: it
// applies the record it is about to log — the call recovery and replay
// make on the records they read — so the log cannot say one thing and the
// engine have done another.
func (c *Controller) adminOn(ctx context.Context, sh *shard, op string, rec journal.Record) (*AdminMachineResponse, error) {
	var resp *AdminMachineResponse
	var aerr error
	err := sh.do(ctx, func() {
		if sh.stopped {
			aerr = ErrDraining
			return
		}
		if sh.journalFailed.Load() {
			aerr = ErrJournalFailed
			return
		}
		// Membership never moves the clock: the tick is the operation's.
		rec.Tick = sh.eng.Now()
		local, err := sh.applyMembership(&rec)
		if err != nil {
			aerr = fmt.Errorf("%w: %v", errAdminConflict, err)
			return
		}
		// The record follows the terminal events the operation triggered,
		// and an add learns its index by being applied.
		rec.Machine = int32(local)
		sh.emit(&rec)
		if sh.jw != nil {
			// Commit-before-ack, like a decide sub-batch: the membership
			// record is durable before the client sees the acknowledgement,
			// so recovery always restores the acknowledged membership.
			if err := sh.commitJournal(); err != nil {
				aerr = err
				return
			}
		}
		sh.eng.PublishLoad(sh.view)
		sh.updateMembershipGauges()
		c.memberOps[rec.Action].Add(1)
		resp = &AdminMachineResponse{
			Op:           op,
			Shard:        sh.id,
			Machine:      sh.global[local],
			MachineName:  c.dir.name(sh.global[local]),
			Now:          sh.eng.Now(),
			LiveMachines: sh.eng.LiveMachines(),
		}
	})
	if err != nil {
		return nil, err
	}
	return resp, aerr
}

// applyMembership applies one KindMembership record to the shard's engine
// and returns the shard-local index of the machine it touched — the only
// caller of the engine's three membership methods. The live loop applies
// the record it is about to log, recovery and replay the records they
// read: membership records are replay inputs like arrives. An added
// machine enters the controller's directory under its engine name and the
// next free matrix-wide index.
func (sh *shard) applyMembership(r *journal.Record) (local int, err error) {
	local = int(r.Machine)
	switch r.Action {
	case journal.MemberAdd:
		if local, err = sh.eng.AddMachine(pet.MachineType(r.Type)); err == nil {
			g := sh.c.dir.add(sh.eng.Machines()[local].Spec.Name, int(r.Type), sh.id, local)
			sh.global = append(sh.global, g)
		}
	case journal.MemberRemove:
		err = sh.eng.RemoveMachine(local, r.NTasks != 0)
	case journal.MemberRevive:
		err = sh.eng.ReviveMachine(local)
	default:
		err = fmt.Errorf("membership op %d", r.Action)
	}
	return local, err
}

// registerAdded reconciles the shard's global index table with an engine
// that grew machines through a checkpoint restore (RestoreSnapshot
// re-attaches runtime-added machines before recovery sees any membership
// record for them).
func (sh *shard) registerAdded() {
	ms := sh.eng.Machines()
	for len(sh.global) < len(ms) {
		i := len(sh.global)
		g := sh.c.dir.add(ms[i].Spec.Name, int(ms[i].Spec.Type), sh.id, i)
		sh.global = append(sh.global, g)
	}
}

// updateMembershipGauges refreshes the shard's lock-free membership
// gauges from the engine. Runs on the decision loop (or during recovery,
// before the loop starts).
func (sh *shard) updateMembershipGauges() {
	sh.liveMachines.Store(int64(sh.eng.LiveMachines()))
	sh.removedMachines.Store(int64(len(sh.eng.RemovedMachines())))
}
