package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
	"github.com/hpcclab/taskdrop/internal/varint"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// randomOpenTasks synthesizes a feedable task sequence with bursts, ties
// and a spread of slacks so snapshots land in interesting states (queues
// full, batch non-empty, drops pending).
func randomOpenTasks(n int, seed int64) []workload.Task {
	rng := stats.NewRNG(seed)
	tasks := make([]workload.Task, n)
	clock := pmf.Tick(0)
	for i := range tasks {
		if rng.Float64() < 0.6 {
			clock += pmf.Tick(rng.Intn(15))
		}
		exec := pmf.Tick(3 + rng.Intn(20))
		tasks[i] = workload.Task{
			ID:         i,
			Type:       0,
			Arrival:    clock,
			Deadline:   clock + pmf.Tick(5+rng.Intn(60)),
			ExecByType: []pmf.Tick{exec},
		}
	}
	return tasks
}

// decodeSnapshot decodes an encoding that holds one snapshot and nothing
// after it.
func decodeSnapshot(b []byte) (*EngineSnapshot, error) {
	r := varint.NewReader(b, "sim: engine snapshot")
	s := ReadSnapshot(&r)
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// snapshotEngines builds a live engine and a same-config fresh replica.
func snapshotEngines(t *testing.T, cfg Config) (live, replica *Engine) {
	t.Helper()
	m := testMatrix(t, 3, pmf.Delta(10))
	return NewOpen(m, fifoMapper{}, nil, cfg), NewOpen(m, fifoMapper{}, nil, cfg)
}

// TestSnapshotRestoreEquivalence is the replay property test: for several
// cut points k, restore(snapshot after k feeds) + feeding the remaining
// tasks must reproduce the live engine exactly — per-task decisions along
// the way, the full state snapshot at the end, and the drained Result.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	cfg := cfgNoExclusion()
	failCfg := cfg
	failCfg.Failures = FailureConfig{MTBF: 40, MeanRepair: 15, Seed: 7}

	for name, c := range map[string]Config{"plain": cfg, "failures": failCfg} {
		t.Run(name, func(t *testing.T) {
			tasks := randomOpenTasks(120, 11)
			for _, cut := range []int{0, 1, 17, 60, 119, 120} {
				live, replica := snapshotEngines(t, c)
				for i := 0; i < cut; i++ {
					live.Feed(&tasks[i])
				}
				// The snapshot must survive its serialization format.
				decoded, err := decodeSnapshot(live.AppendSnapshot(nil))
				if err != nil {
					t.Fatal(err)
				}
				if err := replica.RestoreSnapshot(decoded); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}

				for i := cut; i < len(tasks); i++ {
					a := live.Feed(&tasks[i])
					b := replica.Feed(&tasks[i])
					if a.Status != b.Status || a.Machine != b.Machine {
						t.Fatalf("cut %d: task %d diverged: live %v/m%d, replica %v/m%d",
							cut, i, a.Status, a.Machine, b.Status, b.Machine)
					}
				}
				if got, want := replica.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: final snapshots diverged", cut)
				}
				if got, want := replica.LiveCounts(), live.LiveCounts(); got != want {
					t.Fatalf("cut %d: live counts diverged: %+v vs %+v", cut, got, want)
				}
				got, want := replica.Drain(), live.Drain()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: drained results diverged:\n got %+v\nwant %+v", cut, got, want)
				}
			}
		})
	}
}

// TestSnapshotMidOutageRestores cuts while a machine is down: the restored
// replica must resume the outage (hold the queue, fire the repair) exactly.
func TestSnapshotMidOutageRestores(t *testing.T) {
	cfg := cfgNoExclusion()
	cfg.Failures = FailureConfig{MTBF: 25, MeanRepair: 30, Seed: 3}
	tasks := randomOpenTasks(200, 5)

	live, replica := snapshotEngines(t, cfg)
	cut := -1
	for i := range tasks {
		live.Feed(&tasks[i])
		down := false
		for j := range live.Machines() {
			if live.failed(j) {
				down = true
			}
		}
		if down && i < len(tasks)-10 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Skip("no outage observed in the feed window; tune MTBF")
	}
	if err := replica.RestoreSnapshot(live.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(tasks); i++ {
		live.Feed(&tasks[i])
		replica.Feed(&tasks[i])
	}
	if got, want := replica.Drain(), live.Drain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-outage drains diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestRestoreSnapshotValidation(t *testing.T) {
	m := testMatrix(t, 2, pmf.Delta(10))
	cfg := cfgNoExclusion()

	fresh := func() *Engine { return NewOpen(m, fifoMapper{}, nil, cfg) }

	// Non-fresh target.
	e := fresh()
	tk := workload.Task{ID: 0, Type: 0, Arrival: 0, Deadline: 50, ExecByType: []pmf.Tick{10}}
	e.Feed(&tk)
	if err := e.RestoreSnapshot(fresh().Snapshot()); err == nil {
		t.Fatal("restore into a fed engine accepted")
	}

	// Machine-count mismatch.
	big := NewOpen(testMatrix(t, 3, pmf.Delta(10)), fifoMapper{}, nil, cfg)
	if err := fresh().RestoreSnapshot(big.Snapshot()); err == nil {
		t.Fatal("machine-count mismatch accepted")
	}

	// Failure-config mismatch.
	fcfg := cfg
	fcfg.Failures = FailureConfig{MTBF: 100, MeanRepair: 10, Seed: 1}
	withFail := NewOpen(m, fifoMapper{}, nil, fcfg)
	if err := fresh().RestoreSnapshot(withFail.Snapshot()); err == nil {
		t.Fatal("failure-config mismatch accepted")
	}

	// A census that does not count the tasks the snapshot holds.
	s := e.Snapshot()
	s.Live.Queued++
	if err := fresh().RestoreSnapshot(s); err == nil {
		t.Fatal("census disagreeing with the queues accepted")
	}
	s = e.Snapshot()
	s.Live.OnTime++
	if err := fresh().RestoreSnapshot(s); err == nil {
		t.Fatal("census counting more tasks than arrived accepted")
	}

	// A tally kept for another boundary exclusion.
	bcfg := cfg
	bcfg.BoundaryExclusion = 3
	if err := fresh().RestoreSnapshot(NewOpen(m, fifoMapper{}, nil, bcfg).Snapshot()); err == nil {
		t.Fatal("boundary-exclusion mismatch accepted")
	}
}

// TestSnapshotHoldsOnlyLiveTasks: a snapshot carries the tasks the engine
// still holds and nothing per settled task, so its size follows the queues
// and not the number of tasks ever fed.
func TestSnapshotHoldsOnlyLiveTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Failures = FailureConfig{MTBF: 300, MeanRepair: 40, Seed: 2}
	m := testMatrix(t, 3, pmf.Delta(10))
	e := NewOpen(m, fifoMapper{}, nil, cfg)
	tasks := randomOpenTasks(6000, 17)
	var first int
	for i := range tasks {
		e.Feed(&tasks[i])
		if n := i + 1; n == 600 || n == 6000 {
			s := e.Snapshot()
			held := len(s.Batch)
			for _, ms := range s.Machines {
				held += len(ms.Queue)
			}
			lc := e.LiveCounts()
			if want := lc.Batch + lc.Queued + lc.Running; held != want || lc.total() == 0 {
				t.Fatalf("after %d feeds the snapshot holds %d tasks, the engine %d live (census %+v)", n, held, want, lc)
			}
			blob := e.AppendSnapshot(nil)
			if first == 0 {
				first = len(blob)
			} else if len(blob) > 2*first {
				t.Fatalf("snapshot after 6000 feeds is %d B, after 600 it was %d B", len(blob), first)
			}
		}
	}
}

// TestRestoreRefusesOldSnapshotFormat: a snapshot of another format is
// refused by its leading byte before any field is read, naming the format:
// the JSON of older builds (version 2, and the unversioned one before it
// that listed every task ever fed) by name, a binary one by its version.
func TestRestoreRefusesOldSnapshotFormat(t *testing.T) {
	old := `{"clock":40,"tasks":[{"id":0,"type":0,"arrival":0,"deadline":50,"exec":[10],"status":2,"machine":0,"start":0,"finish":0}],` +
		`"machines":[{"queue":[0],"running":true,"complete_at":10,"busy":0},{"running":false,"complete_at":-1,"busy":0}]}`
	if _, err := decodeSnapshot([]byte(old)); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("JSON snapshot decoded: %v, want an error naming JSON", err)
	}
	e, _ := snapshotEngines(t, cfgNoExclusion())
	for _, v := range []int{0, 2, 4} {
		blob := e.AppendSnapshot(nil)
		blob[0] = byte(v)
		_, err := decodeSnapshot(blob)
		if want := fmt.Sprintf("format version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d snapshot decoded: %v, want an error naming %s", v, err, want)
		}
	}
}

// FuzzReadSnapshot holds the engine codec to the canonical form at its own
// layer: for any encoding ReadSnapshot accepts and RestoreSnapshot restores
// into a fresh failure-injected engine, the restored engine encodes back to
// the input, and neither step panics. The seeds are one engine's encodings
// along a churned feed: failure cursors mid-stream, a removed and an added
// machine, batch and queues, and a boundary tally.
func FuzzReadSnapshot(f *testing.F) {
	cfg := DefaultConfig()
	cfg.BoundaryExclusion = 4
	cfg.Failures = FailureConfig{MTBF: 40, MeanRepair: 15, Seed: 7}
	m := testMatrix(f, 3, pmf.Delta(10))
	fresh := func() *Engine { return NewOpen(m, fifoMapper{}, nil, cfg) }
	live := fresh()
	tasks := randomOpenTasks(120, 11)
	for i := range tasks {
		live.Feed(&tasks[i])
		var err error
		switch i {
		case 40:
			err = live.ApplyMember(MemberOp{Kind: MemberRemove, Machine: 1, Handoff: true}, nil)
		case 70:
			err = live.ApplyMember(MemberOp{Kind: MemberAdd, Type: 0}, nil)
		}
		if err != nil {
			f.Fatal(err)
		}
		if i%20 == 0 {
			f.Add(live.AppendSnapshot(nil))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		e := fresh()
		if err := e.RestoreSnapshot(s); err != nil {
			return
		}
		if re := e.AppendSnapshot(nil); !bytes.Equal(re, b) {
			t.Fatalf("restored encoding is not the input:\n in  %x\n out %x", b, re)
		}
	})
}

// TestJournalHookSeesTerminalEvents checks the WAL hook fires exactly once
// per terminal transition, in event order, with the engine clock.
func TestJournalHookSeesTerminalEvents(t *testing.T) {
	m := testMatrix(t, 1, pmf.Delta(10))
	e := NewOpen(m, fifoMapper{}, nil, cfgNoExclusion())
	type ev struct {
		id     int
		status Status
		tick   pmf.Tick
	}
	var got []ev
	e.SetJournal(func(ts *TaskState, now pmf.Tick) {
		got = append(got, ev{ts.Task.ID, ts.Status, now})
	})
	// Task 0 runs [0,10) and completes on time; task 1's deadline passes
	// while queued → reactive drop at the completion event.
	t0 := workload.Task{ID: 0, Type: 0, Arrival: 0, Deadline: 50, ExecByType: []pmf.Tick{10}}
	t1 := workload.Task{ID: 1, Type: 0, Arrival: 1, Deadline: 8, ExecByType: []pmf.Tick{10}}
	e.Feed(&t0)
	e.Feed(&t1)
	e.Drain()
	// The completion transition fires inside handleCompletion before its
	// mapping pipeline reactively drops the expired task.
	want := []ev{
		{0, StatusCompletedOnTime, 10},
		{1, StatusDroppedReactive, 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal hook events = %+v, want %+v", got, want)
	}
}
