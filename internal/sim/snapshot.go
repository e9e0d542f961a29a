package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/varint"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// snapshotVersion is the checkpoint format this build writes and reads:
// the leading byte of an encoding (Engine.AppendSnapshot). Version 3 is the
// binary form below. Version 2 was JSON, and its predecessor (unversioned,
// so it read as 0) held every task the engine had ever been fed; a JSON
// encoding of either leads with '{' and is refused by name.
const snapshotVersion = 3

// EngineSnapshot is the decoded view of an engine's encoding
// (ReadSnapshot of Engine.AppendSnapshot): the complete state of an engine
// between events — the tasks it holds, batch and machine queues, the census
// and tally of the ones it has settled, the clock, and the failure-process
// cursors. Its size follows what is queued, not what was ever admitted. An
// engine restored from it (RestoreSnapshot, which validates the view before
// it trusts it) produces exactly the same decisions, and drains to the same
// Result, as the original for any subsequent Feed sequence. The engine
// encodes itself, so nothing builds this tree to write or compare a
// checkpoint; the JSON tags serve diagnostics and benchmarks only.
type EngineSnapshot struct {
	Version int      `json:"version"`
	Clock   pmf.Tick `json:"clock"`
	Live    Live     `json:"live"`
	Tally   Tally    `json:"tally"`
	// Batch is the unmapped batch queue, in order.
	Batch    []TaskSnapshot    `json:"batch,omitempty"`
	Machines []MachineSnapshot `json:"machines"`
	// Failures holds one cursor per machine when failure injection is on.
	Failures []FailureSnapshot `json:"failures,omitempty"`
	// Added lists the machine types of runtime-added machines (MemberAdd)
	// in order of addition; Removed lists the machine indexes currently out
	// of the live set, ascending. Both are empty on an engine whose
	// membership never changed.
	Added   []int `json:"added,omitempty"`
	Removed []int `json:"removed,omitempty"`
}

// TaskSnapshot is one live task: the immutable arrival data, its arrival
// ordinal, and when it started if it is running. Where it sits in the
// snapshot says the rest (batch, or which machine's queue).
type TaskSnapshot struct {
	ID       int        `json:"id"`
	Seq      int        `json:"seq"`
	Type     int        `json:"type"`
	Arrival  pmf.Tick   `json:"arrival"`
	Deadline pmf.Tick   `json:"deadline"`
	Exec     []pmf.Tick `json:"exec"`
	Start    pmf.Tick   `json:"start,omitempty"`
}

// MachineSnapshot is one machine's queue (head first) and execution state.
type MachineSnapshot struct {
	Queue      []TaskSnapshot `json:"queue,omitempty"`
	Running    bool           `json:"running"`
	CompleteAt pmf.Tick       `json:"complete_at"`
	Busy       pmf.Tick       `json:"busy"`
}

// FailureSnapshot is one machine's failure-process cursor. Draws counts
// the exponential samples consumed from the machine's seeded stream;
// restore replays the stream to that point (the engine cannot serialize
// math/rand state directly).
type FailureSnapshot struct {
	Draws      int64    `json:"draws"`
	NextFailAt pmf.Tick `json:"next_fail_at"`
	RepairAt   pmf.Tick `json:"repair_at"`
}

// restoreTasks loads one queue of a snapshot, of machine (−1: the batch)
// whose head is running when headRunning: it appends the queue's states,
// drawn from newTask like a fed task's, to out.
func (e *Engine) restoreTasks(out []*TaskState, q []TaskSnapshot, machine int, headRunning bool) []*TaskState {
	for i := range q {
		t := &q[i]
		ts := e.newTask(&workload.Task{
			ID:         t.ID,
			Type:       pet.TaskType(t.Type),
			Arrival:    t.Arrival,
			Deadline:   t.Deadline,
			ExecByType: t.Exec,
		})
		ts.Seq, ts.Status, ts.Machine, ts.Start = t.Seq, StatusQueued, machine, t.Start
		switch {
		case machine < 0:
			ts.Status = StatusBatch
		case i == 0 && headRunning:
			ts.Status = StatusRunning
		}
		out = append(out, ts)
	}
	return out
}

// AppendSnapshot appends the engine's encoding to buf and returns the
// extended slice: the format byte, then the state in EngineSnapshot's field
// order — each integer a zigzag varint, each count an unsigned varint
// before its elements, each flag and status one byte. Fields stand alone (no
// deltas), and the form is canonical: ReadSnapshot accepts exactly what
// this writes. It reads the engine's own state, so it allocates nothing
// once buf has room.
func (e *Engine) AppendSnapshot(buf []byte) []byte {
	buf = append(buf, snapshotVersion)
	buf = binary.AppendVarint(buf, int64(e.clock))
	l := &e.live
	for _, n := range [...]int{l.Arrived, l.Batch, l.Queued, l.Running} {
		buf = binary.AppendVarint(buf, int64(n))
	}
	buf = appendOutcomes(buf, &l.Outcomes)
	t := &e.tally
	buf = binary.AppendVarint(buf, int64(t.Credit))
	buf = appendOutcomes(buf, &t.Head)
	buf = binary.AppendVarint(buf, int64(t.HeadCredit))
	buf = binary.AppendUvarint(buf, uint64(len(t.Tail)))
	for _, st := range t.Tail {
		buf = append(buf, byte(st.Status))
		buf = binary.AppendVarint(buf, int64(st.Credit))
	}
	buf = appendTasks(buf, e.batch)
	buf = binary.AppendUvarint(buf, uint64(len(e.machines)))
	removed := 0
	for _, m := range e.machines {
		buf = appendTasks(buf, m.queue)
		buf = varint.AppendBool(buf, m.running)
		buf = binary.AppendVarint(buf, int64(m.completeAt))
		buf = binary.AppendVarint(buf, int64(m.busy))
		if m.removed {
			removed++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.failures)))
	for i := range e.failures {
		f := &e.failures[i]
		buf = binary.AppendVarint(buf, f.draws)
		buf = binary.AppendVarint(buf, int64(f.nextFailAt))
		buf = binary.AppendVarint(buf, int64(f.repairAt))
	}
	buf = appendInts(buf, e.addedTypes)
	buf = binary.AppendUvarint(buf, uint64(removed))
	for i, m := range e.machines {
		if m.removed {
			buf = binary.AppendVarint(buf, int64(i))
		}
	}
	return buf
}

func appendOutcomes(buf []byte, o *Outcomes) []byte {
	for _, n := range [...]int{o.OnTime, o.Late, o.DroppedReactive, o.DroppedProactive, o.Failed} {
		buf = binary.AppendVarint(buf, int64(n))
	}
	return buf
}

func appendTasks(buf []byte, q []*TaskState) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(q)))
	for _, ts := range q {
		t := &ts.Task
		buf = binary.AppendVarint(buf, int64(t.ID))
		buf = binary.AppendVarint(buf, int64(ts.Seq))
		buf = binary.AppendVarint(buf, int64(t.Type))
		buf = binary.AppendVarint(buf, int64(t.Arrival))
		buf = binary.AppendVarint(buf, int64(t.Deadline))
		buf = binary.AppendUvarint(buf, uint64(len(t.ExecByType)))
		for _, x := range t.ExecByType {
			buf = binary.AppendVarint(buf, int64(x))
		}
		buf = binary.AppendVarint(buf, int64(ts.Start))
	}
	return buf
}

func appendInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// The fewest bytes one element of each list takes: ReadSnapshot refuses a
// count whose elements cannot fit in the bytes left before it allocates.
const (
	minSettledBytes = 2 // status, credit
	minTaskBytes    = 7 // five fields, the exec count, start
	minMachineBytes = 4 // queue count, running, complete_at, busy
	minFailureBytes = 3
	maxCount        = math.MaxInt32
)

// ReadSnapshot decodes one Engine.AppendSnapshot encoding at r's position,
// leaving r after it (a checkpoint continues past the snapshot). It refuses
// another format by its leading byte before reading a field — a JSON
// encoding by name — and a varint off its shortest form, a flag other than
// 0 or 1, or a count past the bytes left; the error sticks in r, which the
// caller checks (its Finish also refuses trailing bytes). It never panics
// on hostile input.
func ReadSnapshot(r *varint.Reader) *EngineSnapshot {
	switch v := r.U8(); {
	case r.Err() != nil:
		return nil
	case v == '{':
		r.Failf("is JSON, the format of an older build; this build reads format version %d only", snapshotVersion)
		return nil
	case v != snapshotVersion:
		r.Failf("is format version %d, this build reads version %d only", v, snapshotVersion)
		return nil
	}
	s := &EngineSnapshot{Version: snapshotVersion, Clock: pmf.Tick(r.Varint())}
	l := &s.Live
	l.Arrived, l.Batch, l.Queued, l.Running = r.Int(), r.Int(), r.Int(), r.Int()
	readOutcomes(r, &l.Outcomes)
	t := &s.Tally
	t.Credit = pmf.Tick(r.Varint())
	readOutcomes(r, &t.Head)
	t.HeadCredit = pmf.Tick(r.Varint())
	if n := r.Count(maxCount, minSettledBytes); n > 0 {
		t.Tail = make([]Settled, n)
		for i := range t.Tail {
			t.Tail[i] = Settled{Status: Status(r.U8()), Credit: pmf.Tick(r.Varint())}
		}
	}
	s.Batch = readTasks(r)
	s.Machines = make([]MachineSnapshot, r.Count(maxCount, minMachineBytes))
	for i := range s.Machines {
		m := &s.Machines[i]
		m.Queue = readTasks(r)
		m.Running = r.Bool()
		m.CompleteAt = pmf.Tick(r.Varint())
		m.Busy = pmf.Tick(r.Varint())
	}
	if n := r.Count(maxCount, minFailureBytes); n > 0 {
		s.Failures = make([]FailureSnapshot, n)
		for i := range s.Failures {
			s.Failures[i] = FailureSnapshot{Draws: r.Varint(), NextFailAt: pmf.Tick(r.Varint()), RepairAt: pmf.Tick(r.Varint())}
		}
	}
	s.Added = readInts(r)
	s.Removed = readInts(r)
	return s
}

func readOutcomes(r *varint.Reader, o *Outcomes) {
	o.OnTime, o.Late, o.DroppedReactive, o.DroppedProactive, o.Failed = r.Int(), r.Int(), r.Int(), r.Int(), r.Int()
}

func readTasks(r *varint.Reader) []TaskSnapshot {
	n := r.Count(maxCount, minTaskBytes)
	if n == 0 {
		return nil
	}
	q := make([]TaskSnapshot, n)
	for i := range q {
		t := &q[i]
		t.ID, t.Seq, t.Type = r.Int(), r.Int(), r.Int()
		t.Arrival, t.Deadline = pmf.Tick(r.Varint()), pmf.Tick(r.Varint())
		if n := r.Count(maxCount, 1); n > 0 {
			t.Exec = make([]pmf.Tick, n)
			for j := range t.Exec {
				t.Exec[j] = pmf.Tick(r.Varint())
			}
		}
		t.Start = pmf.Tick(r.Varint())
	}
	return q
}

func readInts(r *varint.Reader) []int {
	n := r.Count(maxCount, 1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs
}

// Snapshot is the decoded view of the engine's encoding: ReadSnapshot of
// AppendSnapshot, for comparing engines and for diagnostics.
func (e *Engine) Snapshot() *EngineSnapshot {
	r := varint.NewReader(e.AppendSnapshot(nil), "sim: engine snapshot")
	return ReadSnapshot(&r)
}

// RestoreSnapshot loads s into e, which must be a freshly built engine
// (NewOpen / NewOpenShard with the same PET matrix, machine set and
// configuration as the snapshotted one) that has not been fed. After a
// successful restore the engine is indistinguishable from the original:
// same clock, queues, batch, census, tally and failure cursors.
func (e *Engine) RestoreSnapshot(s *EngineSnapshot) error {
	if e.live.Arrived != 0 || e.clock != 0 {
		return fmt.Errorf("sim: RestoreSnapshot on a non-fresh engine (%d tasks, clock %d)", e.live.Arrived, e.clock)
	}
	if len(s.Tally.Tail) != e.cfg.BoundaryExclusion {
		return fmt.Errorf("sim: snapshot tallies a boundary of %d tasks, engine excludes %d", len(s.Tally.Tail), e.cfg.BoundaryExclusion)
	}
	// Re-attach runtime-added machines before any count check: the fresh
	// engine was built over the original machine set, the snapshot covers
	// the grown one.
	for _, mt := range s.Added {
		price, err := e.priceOf(pet.MachineType(mt))
		if err != nil {
			return err
		}
		e.attachMachine(pet.MachineType(mt), price)
	}
	if len(s.Machines) != len(e.machines) {
		return fmt.Errorf("sim: snapshot has %d machines, engine has %d", len(s.Machines), len(e.machines))
	}
	if got, want := len(e.failures) > 0, len(s.Failures) > 0; got != want {
		return fmt.Errorf("sim: snapshot and engine disagree on failure injection (snapshot %v, engine %v)", want, got)
	}
	if len(s.Failures) > 0 && len(s.Failures) != len(e.machines) {
		return fmt.Errorf("sim: snapshot has %d failure cursors for %d machines", len(s.Failures), len(e.machines))
	}

	held := Live{Arrived: s.Live.Arrived, Batch: len(s.Batch), Outcomes: s.Live.Outcomes}
	for i, ms := range s.Machines {
		m := e.machines[i]
		if ms.Running && len(ms.Queue) == 0 {
			return fmt.Errorf("sim: snapshot machine %d running with empty queue", i)
		}
		m.queue = e.restoreTasks(m.queue[:0], ms.Queue, i, ms.Running)
		m.running = ms.Running
		m.completeAt = ms.CompleteAt
		m.busy = ms.Busy
		m.version++
		m.tailValid = false
		// Hygiene, not correctness: the signature check would catch any
		// drift lazily, but a restored engine should not start life
		// trusting chains cached for a different queue history.
		m.cache.Invalidate(core.InvalidateChurn)
		held.Queued += len(ms.Queue)
		if ms.Running {
			held.Queued--
			held.Running++
		}
	}
	e.batch = e.restoreTasks(e.batch[:0], s.Batch, -1, false)
	if held != s.Live || held.Batch+held.Queued+held.Running+held.total() != held.Arrived {
		return fmt.Errorf("sim: snapshot census %+v does not count the tasks it holds (%d batch, %d queued, %d running)",
			s.Live, held.Batch, held.Queued, held.Running)
	}

	// A cursor draws once at construction and then at most twice a tick (a
	// failure or repair, and a revive re-arming it), which also bounds the
	// stream restore replays.
	maxDraws := 2*uint64(max(s.Clock, 0)) + 3
	for i, fc := range s.Failures {
		if fc.Draws < 1 || uint64(fc.Draws) > maxDraws {
			return fmt.Errorf("sim: snapshot failure cursor %d with %d draws by clock %d", i, fc.Draws, s.Clock)
		}
		fs := &e.failures[i]
		// Construction already consumed the stream's first sample; discard
		// up to the snapshot's count, then overwrite the schedule.
		for ; fs.draws < fc.Draws; fs.draws++ {
			fs.rng.Exponential(1)
		}
		fs.nextFailAt = fc.NextFailAt
		fs.repairAt = fc.RepairAt
	}

	for j, ri := range s.Removed {
		if ri < 0 || ri >= len(e.machines) {
			return fmt.Errorf("sim: snapshot removes machine %d of %d", ri, len(e.machines))
		}
		if j > 0 && ri <= s.Removed[j-1] {
			return fmt.Errorf("sim: snapshot removes machine %d after machine %d", ri, s.Removed[j-1])
		}
		e.machines[ri].removed = true
		e.totalSlots -= e.cfg.QueueCap
	}

	e.clock = s.Clock
	e.live = s.Live
	e.tally = s.Tally
	e.tally.Tail = append([]Settled(nil), s.Tally.Tail...)
	return nil
}
