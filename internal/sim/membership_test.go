package sim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
)

// membershipEngine builds a 3-machine open engine with a few tasks fed so
// queues are non-empty when membership changes.
func membershipEngine(t *testing.T, feed int) *Engine {
	t.Helper()
	m := testMatrix(t, 3, pmf.Delta(10))
	e := NewOpen(m, fifoMapper{}, nil, cfgNoExclusion())
	tasks := randomOpenTasks(feed, 21)
	for i := range tasks {
		e.Feed(&tasks[i])
	}
	return e
}

func TestRemoveMachineHandoff(t *testing.T) {
	e := membershipEngine(t, 40)
	before := e.LiveCounts()
	if before.Queued == 0 {
		t.Fatal("setup: no queued work to hand off")
	}
	if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 1, Handoff: true}, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveMachines(); got != 2 {
		t.Fatalf("LiveMachines = %d after remove, want 2", got)
	}
	if got := e.RemovedMachines(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("RemovedMachines = %v, want [1]", got)
	}
	// The removed machine's queue is empty; nothing on it survived.
	if n := len(e.Machines()[1].Queue()); n != 0 {
		t.Fatalf("removed machine still holds %d queue entries", n)
	}
	// Handoff semantics: no task silently disappears — every previously
	// queued task is failed (the running one), still queued elsewhere
	// (remapped), deferred back to the batch, or terminal.
	after := e.LiveCounts()
	total := after.Queued + after.Batch + after.Running
	if total == 0 && before.Queued+before.Batch > 1 {
		t.Fatalf("handoff lost all pending work: before %+v, after %+v", before, after)
	}
	if after.Failed == 0 && before.Running > 0 {
		t.Fatalf("running task on removed machine not failed: %+v", after)
	}

	// Double-remove and out-of-range are errors.
	if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 1, Handoff: true}, nil); err == nil {
		t.Fatal("second remove of machine 1 accepted")
	}
	if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 99, Handoff: true}, nil); err == nil {
		t.Fatal("remove of machine 99 accepted")
	}
}

func TestRemoveMachineForceDrop(t *testing.T) {
	e := membershipEngine(t, 40)
	before := e.LiveCounts()
	if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 0}, nil); err != nil {
		t.Fatal(err)
	}
	after := e.LiveCounts()
	// Force-drop: the machine's pending queue died with it. Failures can
	// only grow, and nothing was handed back to the batch beyond what the
	// mapping pipeline re-deferred.
	if after.Failed <= before.Failed {
		t.Fatalf("force-drop removed a loaded machine but Failed stayed %d → %d", before.Failed, after.Failed)
	}
}

func TestReviveMachine(t *testing.T) {
	e := membershipEngine(t, 20)
	if err := e.ApplyMember(MemberOp{Kind: MemberRevive, Machine: 2}, nil); err == nil {
		t.Fatal("revive of a live machine accepted")
	}
	if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 2, Handoff: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyMember(MemberOp{Kind: MemberRevive, Machine: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveMachines(); got != 3 {
		t.Fatalf("LiveMachines = %d after revive, want 3", got)
	}
	if got := e.RemovedMachines(); got != nil {
		t.Fatalf("RemovedMachines = %v after revive, want nil", got)
	}
	// The revived machine is usable: keep feeding and drain cleanly.
	tasks := randomOpenTasks(20, 31)
	for i := range tasks {
		e.Feed(&tasks[i])
	}
	if res := e.Drain(); res.Total == 0 {
		t.Fatal("drain after revive accounted no tasks")
	}
}

func TestAddMachine(t *testing.T) {
	e := membershipEngine(t, 10)
	if err := e.ApplyMember(MemberOp{Kind: MemberAdd, Type: 0}, nil); err != nil {
		t.Fatal(err)
	}
	i := len(e.Machines()) - 1
	if i != 3 {
		t.Fatalf("added machine index = %d, want 3", i)
	}
	spec := e.Machines()[i].Spec
	if spec.Name != "added-0#0" || int(spec.Type) != 0 {
		t.Fatalf("added machine spec = %+v", spec)
	}
	if spec.PriceHour != e.Machines()[0].Spec.PriceHour {
		t.Fatalf("added machine price %v, want cloned %v", spec.PriceHour, e.Machines()[0].Spec.PriceHour)
	}
	if got := e.LiveMachines(); got != 4 {
		t.Fatalf("LiveMachines = %d, want 4", got)
	}
	if err := e.ApplyMember(MemberOp{Kind: MemberAdd, Type: 7}, nil); err == nil {
		t.Fatal("add of an unknown type accepted")
	}
}

// TestApplyMemberAcceptsBeforeEffects pins the order a journal relies on:
// ApplyMember reports an accepted operation before any of its effects (the
// census still holds the tasks a remove kills; an add has not yet attached
// its machine), and a refused one is never reported and changes nothing.
func TestApplyMemberAcceptsBeforeEffects(t *testing.T) {
	e := membershipEngine(t, 40)
	var seen []Live
	note := func() { seen = append(seen, e.LiveCounts()) }
	before := e.LiveCounts()
	if err := e.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 1}, note); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != before || e.LiveCounts() == before {
		t.Fatalf("remove reported %v; census before %+v, after %+v", seen, before, e.LiveCounts())
	}
	after := e.Snapshot()
	for _, op := range []MemberOp{
		{Kind: MemberRemove, Machine: 1}, {Kind: MemberRevive, Machine: 0}, {Kind: MemberRemove, Machine: 99},
		{Kind: MemberRevive, Machine: -1}, {Kind: MemberAdd, Type: 7}, {Kind: MemberRevive + 1},
	} {
		if err := e.ApplyMember(op, note); err == nil {
			t.Errorf("%+v accepted", op)
		}
	}
	if len(seen) != 1 || !reflect.DeepEqual(e.Snapshot(), after) {
		t.Fatalf("refused operations were reported (%d) or changed the engine", len(seen)-1)
	}
	held := -1
	if err := e.ApplyMember(MemberOp{Kind: MemberAdd, Type: 0}, func() { held = len(e.Machines()) }); err != nil || held != 3 || len(e.Machines()) != 4 {
		t.Fatalf("add: %v; reported with %d machines attached, then %d", err, held, len(e.Machines()))
	}
}

// TestMembershipSnapshotRoundTrip extends the replay property to churned
// engines: snapshot a live engine mid-churn (machine removed, machine
// added), restore into a fresh replica, and require identical decisions,
// snapshots and drained results from there on.
func TestMembershipSnapshotRoundTrip(t *testing.T) {
	cfg := cfgNoExclusion()
	tasks := randomOpenTasks(120, 11)
	live, replica := snapshotEngines(t, cfg)
	for i := 0; i < 50; i++ {
		live.Feed(&tasks[i])
	}
	if err := live.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 1, Handoff: true}, nil); err != nil {
		t.Fatal(err)
	}
	if err := live.ApplyMember(MemberOp{Kind: MemberAdd, Type: 0}, nil); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 60; i++ {
		live.Feed(&tasks[i])
	}

	decoded, err := decodeSnapshot(live.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.RestoreSnapshot(decoded); err != nil {
		t.Fatal(err)
	}
	if got, want := replica.LiveMachines(), live.LiveMachines(); got != want {
		t.Fatalf("restored LiveMachines = %d, want %d", got, want)
	}
	if got, want := replica.RemovedMachines(), live.RemovedMachines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored RemovedMachines = %v, want %v", got, want)
	}

	for i := 60; i < len(tasks); i++ {
		a, b := live.Feed(&tasks[i]), replica.Feed(&tasks[i])
		if a.Status != b.Status || a.Machine != b.Machine {
			t.Fatalf("task %d diverged post-restore: live %v/m%d, replica %v/m%d",
				i, a.Status, a.Machine, b.Status, b.Machine)
		}
	}
	// A revive after restore behaves identically too.
	if err := live.ApplyMember(MemberOp{Kind: MemberRevive, Machine: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyMember(MemberOp{Kind: MemberRevive, Machine: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := replica.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("final snapshots diverged")
	}
	if got, want := replica.Drain(), live.Drain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("drained results diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestUnchurnedSnapshotOmitsMembership pins the zero-cost contract: an
// engine that never saw a membership operation snapshots no membership —
// its encoding ends in two empty lists, one byte each.
func TestUnchurnedSnapshotOmitsMembership(t *testing.T) {
	e := membershipEngine(t, 20)
	if s := e.Snapshot(); s.Added != nil || s.Removed != nil {
		t.Fatalf("unchurned snapshot carries membership: added %v removed %v", s.Added, s.Removed)
	}
	if blob := e.AppendSnapshot(nil); !bytes.HasSuffix(blob, []byte{0, 0}) {
		t.Fatalf("unchurned snapshot does not end in two empty lists: %x", blob)
	}
}

func TestGenerateChurnProperties(t *testing.T) {
	const machines = 4
	const window = pmf.Tick(20000)
	cfg := ChurnConfig{MeanInterval: 500, MeanDown: 300, Seed: 7}

	a := GenerateChurn(machines, window, cfg)
	b := GenerateChurn(machines, window, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("churn plan is not deterministic for a fixed seed")
	}
	if len(a) == 0 {
		t.Fatal("plan empty for an aggressive config")
	}

	down := make(map[int]bool)
	last := pmf.Tick(0)
	for _, ev := range a {
		if ev.At < last {
			t.Fatalf("plan out of order at %+v", ev)
		}
		last = ev.At
		switch ev.Kind {
		case MemberRemove:
			if down[ev.Machine] {
				t.Fatalf("machine %d removed twice without revive", ev.Machine)
			}
			down[ev.Machine] = true
			if len(down) >= machines {
				t.Fatal("plan killed the last live machine")
			}
		case MemberRevive:
			if !down[ev.Machine] {
				t.Fatalf("machine %d revived while live", ev.Machine)
			}
			delete(down, ev.Machine)
		default:
			t.Fatalf("unexpected op %v in generated plan", ev.Kind)
		}
		if ev.At >= window {
			t.Fatalf("event at %d past window %d", ev.At, window)
		}
	}

	if got := GenerateChurn(machines, window, ChurnConfig{}); got != nil {
		t.Fatalf("disabled config generated %d events", len(got))
	}
	if got := GenerateChurn(1, window, cfg); got != nil {
		t.Fatal("single-machine system generated churn")
	}
}

// TestClusterChurn drives a generated plan through the cluster driver:
// every event applies cleanly and the run is reproducible. An Add event
// (not part of generated plans) lands on the shard it names under the index
// Global gives it, which later events address it by; an index of the
// lattice no machine holds yet is refused.
func TestClusterChurn(t *testing.T) {
	m, tr := clusterTestSystem(t, 400, 9)
	cfg := Config{QueueCap: 6}
	plan := GenerateChurn(len(m.Machines()), tr.Tasks[len(tr.Tasks)-1].Arrival, ChurnConfig{MeanInterval: 300, MeanDown: 200, Seed: 5})
	if len(plan) == 0 {
		t.Fatal("setup: empty plan")
	}

	run := func() *Result {
		cl, err := NewCluster(m, 2, router.NewRoundRobin(), pamHeuristic(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for i := range tr.Tasks {
			for next < len(plan) && plan[next].At <= tr.Tasks[i].Arrival {
				if err := cl.ApplyChurn(plan[next]); err != nil {
					t.Fatalf("event %d (%+v): %v", next, plan[next], err)
				}
				next++
			}
			cl.Feed(&tr.Tasks[i])
		}
		for ; next < len(plan); next++ {
			if err := cl.ApplyChurn(plan[next]); err != nil {
				t.Fatalf("trailing event %d: %v", next, err)
			}
		}
		return cl.Drain()
	}
	r1, r2 := run(), run()
	if *r1 != *r2 {
		t.Fatalf("churned cluster not reproducible:\n %+v\n %+v", r1, r2)
	}
	if r1.Total != len(tr.Tasks) {
		t.Fatalf("accounted %d tasks, want %d", r1.Total, len(tr.Tasks))
	}

	cl, err := NewCluster(m, 2, router.NewRoundRobin(), pamHeuristic(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nm := len(m.Machines())
	if err := cl.ApplyChurn(ChurnEvent{MemberOp: MemberOp{Kind: MemberAdd, Type: 0}, Shard: 1}); err != nil {
		t.Fatal(err)
	}
	eng := cl.Shards()[1]
	added := len(eng.Machines()) - 1
	if g := cl.Global(1, added); g != nm+1 || eng.Machines()[added].Spec.Name != "added-0#0" {
		t.Fatalf("first add on shard 1 of 2 is machine %d %q, want %d \"added-0#0\"", g, eng.Machines()[added].Spec.Name, nm+1)
	}
	if err := cl.ApplyChurn(ChurnEvent{MemberOp: MemberOp{Kind: MemberRemove, Machine: nm}}); err == nil {
		t.Fatalf("removed machine %d, the place of shard 0's first add, which nothing holds", nm)
	}
	if err := cl.ApplyChurn(ChurnEvent{MemberOp: MemberOp{Kind: MemberRemove, Machine: nm + 1}}); err != nil || eng.LiveMachines() != added {
		t.Fatalf("remove of the added machine: %v, %d live on its shard, want %d", err, eng.LiveMachines(), added)
	}
}
