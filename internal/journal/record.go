package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// Kind discriminates journal records.
type Kind uint8

// Record kinds. The numeric values are the on-disk format; never reorder.
const (
	// KindBatch marks a decide sub-batch boundary: NTasks arrivals follow.
	// Replay counts one shard request per batch record. ID optionally
	// carries the request's idempotent decision ID (a trailing field, absent
	// when the request had none), which lets recovery re-seed the server's
	// dedup window so a retry straddling a crash gets its original decisions.
	KindBatch Kind = 1
	// KindArrive is one admitted arrival: the cluster-wide sequence number
	// and the full task (type, arrival, deadline, realized execution times,
	// optional client label). Arrive records alone drive recovery — the
	// shard engine is deterministic, so re-feeding them reconstructs every
	// queue, clock and pending decision.
	KindArrive Kind = 2
	// KindDecision is the admission outcome the shard acknowledged for one
	// arrival: action, shard-local machine (-1 when unmapped) and the shard
	// clock after the decision. Redundant given the arrives (replay
	// re-derives it) — which is exactly what makes the log auditable:
	// hcreplay -verify recomputes and compares.
	KindDecision Kind = 3
	// KindEvent is a terminal task transition after admission: completion
	// (on time or late), failure, or a reactive/proactive drop, with the
	// tick it happened at. Seq is the task's cluster-wide sequence number;
	// Action carries the sim.Status code.
	KindEvent Kind = 4
	// KindDrain marks a graceful drain: an input, logged at the clock the
	// drain starts (Tick), before the terminal events of the work it runs to
	// completion; a graceful shutdown follows it with a final snapshot.
	KindDrain Kind = 5
	// KindTrace is the observational stage timing of one sampled decision
	// (internal/telemetry): per-stage [start, end) wall-clock offsets in
	// nanoseconds from the decision's request receipt. Purely diagnostic —
	// wall time is not derivable from replay, so recovery ignores these
	// records and hcreplay -verify skips them; the audit mode prints them
	// next to the replayed decision.
	KindTrace Kind = 6
	// KindMembership is one runtime membership change applied to the shard
	// engine between arrivals: Action carries the op (MemberAdd /
	// MemberRemove / MemberRevive), Machine the shard-local machine index
	// (for adds, the index the new machine was assigned), Type the machine
	// type (adds only), NTasks the remove handoff flag (1 = pending queue
	// handed back to the batch, 0 = force-dropped), and Tick the shard
	// clock the op executed at. Membership records are replay *inputs* like
	// arrives, logged before the terminal events they cause — recovery and
	// hcreplay -verify re-apply them to the engine at the recorded point,
	// re-deriving the decision stream across churn.
	KindMembership Kind = 7
)

// Decision actions on the wire (KindDecision.Action).
const (
	ActMap   uint8 = 0
	ActDefer uint8 = 1
	ActDrop  uint8 = 2
)

// Membership ops on the wire (KindMembership.Action).
const (
	MemberAdd    uint8 = 0
	MemberRemove uint8 = 1
	MemberRevive uint8 = 2
)

// Record is one journal entry. It is a flat union over the kinds: only
// the fields relevant to a record's Kind are encoded (see the Kind docs).
type Record struct {
	Kind Kind
	// Seq is the cluster-wide arrival sequence number (arrive, decision,
	// event records).
	Seq int64
	// Tick is the record's time: arrival tick, decision-time shard clock,
	// event tick, or drain tick.
	Tick pmf.Tick
	// Deadline is the task's absolute deadline (arrive records).
	Deadline pmf.Tick
	// Type is the task's PET row (arrive records).
	Type int32
	// Action is the decision action (decision records) or the terminal
	// sim.Status code (event records).
	Action uint8
	// Machine is the shard-local machine index, -1 when unmapped
	// (decision records).
	Machine int32
	// NTasks is the sub-batch size (batch records).
	NTasks int32
	// Exec is the realized execution time per machine type (arrive
	// records).
	Exec []pmf.Tick
	// ID is the optional client-chosen decision label (arrive records) or
	// the request's idempotent decision ID (batch records).
	ID string
	// Spans is the per-stage timing of a sampled decision (trace records).
	Spans []SpanRec
}

// SpanRec is one stage span of a trace record: the stage code (the
// numeric value of internal/telemetry.Stage) and its [start, end) offsets
// in nanoseconds from the decision's request receipt.
type SpanRec struct {
	Stage   uint8
	StartNS uint64
	EndNS   uint64
}

// Frame and payload limits. A record payload is tiny (an arrive with
// a dozen machine types and a long label stays under 300 bytes); the caps
// exist so a corrupt length field cannot make the reader allocate wildly.
const (
	frameHeader  = 8       // u32 length + u32 crc
	maxPayload   = 1 << 20 // 1 MiB
	maxExecTypes = 4096
	maxIDLen     = 1 << 16
	maxSpans     = 64
	// recordVersion leads every payload. 2: each input record precedes the
	// records it causes (1 logged drain and membership after theirs).
	recordVersion = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the framed encoding of r to buf and returns the
// extended slice. It allocates only when buf lacks capacity, so a
// single-writer loop reusing its buffer appends allocation-free.
func AppendRecord(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder

	buf = append(buf, recordVersion, byte(r.Kind))
	switch r.Kind {
	case KindBatch:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.NTasks))
		// The decision ID is a trailing optional field: an ID-less batch ends
		// after NTasks, and the decoder reads it only when bytes remain.
		if r.ID != "" {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ID)))
			buf = append(buf, r.ID...)
		}
	case KindArrive:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Seq))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Type))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Tick))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Deadline))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Exec)))
		for _, x := range r.Exec {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ID)))
		buf = append(buf, r.ID...)
	case KindDecision:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Seq))
		buf = append(buf, r.Action)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Machine))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Tick))
	case KindEvent:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Seq))
		buf = append(buf, r.Action)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Tick))
	case KindDrain:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Tick))
	case KindMembership:
		buf = append(buf, r.Action)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Machine))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Type))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.NTasks))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Tick))
	case KindTrace:
		if len(r.Spans) > maxSpans {
			panic(fmt.Sprintf("journal: trace record with %d spans, cap %d", len(r.Spans), maxSpans))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Seq))
		buf = append(buf, uint8(len(r.Spans)))
		for _, sp := range r.Spans {
			buf = append(buf, sp.Stage)
			buf = binary.LittleEndian.AppendUint64(buf, sp.StartNS)
			buf = binary.LittleEndian.AppendUint64(buf, sp.EndNS)
		}
	default:
		panic(fmt.Sprintf("journal: encoding unknown record kind %d", r.Kind))
	}

	sealFrame(buf[start:])
	return buf
}

// sealFrame fills in the header of frame — frameHeader placeholder bytes
// and the payload after them — with the payload's length and CRC-32C.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
}

// DecodeRecord parses one record payload (the bytes after the frame
// header, CRC already verified). It never panics on hostile input; any
// structural violation returns an error.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	d := decoder{buf: payload}
	ver := d.u8()
	if ver != recordVersion {
		return r, fmt.Errorf("journal: record version %d, want %d", ver, recordVersion)
	}
	r.Kind = Kind(d.u8())
	switch r.Kind {
	case KindBatch:
		r.NTasks = int32(d.u32())
		if r.NTasks < 0 {
			return r, fmt.Errorf("journal: batch record with %d tasks", r.NTasks)
		}
		if d.err == nil && d.remaining() > 0 {
			idLen := int(d.u16())
			if idLen > maxIDLen {
				return r, fmt.Errorf("journal: batch record with %d-byte id", idLen)
			}
			r.ID = string(d.bytes(idLen))
		}
	case KindArrive:
		r.Seq = int64(d.u64())
		r.Type = int32(d.u32())
		r.Tick = pmf.Tick(d.u64())
		r.Deadline = pmf.Tick(d.u64())
		n := int(d.u16())
		if n > maxExecTypes {
			return r, fmt.Errorf("journal: arrive record with %d exec entries", n)
		}
		if d.err == nil && n > 0 {
			if d.remaining() < 8*n {
				return r, fmt.Errorf("journal: arrive record truncated in exec entries")
			}
			r.Exec = make([]pmf.Tick, n)
			for i := range r.Exec {
				r.Exec[i] = pmf.Tick(d.u64())
			}
		}
		idLen := int(d.u16())
		if idLen > maxIDLen {
			return r, fmt.Errorf("journal: arrive record with %d-byte id", idLen)
		}
		r.ID = string(d.bytes(idLen))
	case KindDecision:
		r.Seq = int64(d.u64())
		r.Action = d.u8()
		r.Machine = int32(d.u32())
		r.Tick = pmf.Tick(d.u64())
	case KindEvent:
		r.Seq = int64(d.u64())
		r.Action = d.u8()
		r.Tick = pmf.Tick(d.u64())
	case KindDrain:
		r.Tick = pmf.Tick(d.u64())
	case KindMembership:
		r.Action = d.u8()
		r.Machine = int32(d.u32())
		r.Type = int32(d.u32())
		r.NTasks = int32(d.u32())
		r.Tick = pmf.Tick(d.u64())
		if r.Action > MemberRevive {
			return r, fmt.Errorf("journal: membership record with op %d", r.Action)
		}
	case KindTrace:
		r.Seq = int64(d.u64())
		n := int(d.u8())
		if n > maxSpans {
			return r, fmt.Errorf("journal: trace record with %d spans", n)
		}
		if d.err == nil && n > 0 {
			if d.remaining() < 17*n {
				return r, fmt.Errorf("journal: trace record truncated in spans")
			}
			r.Spans = make([]SpanRec, n)
			for i := range r.Spans {
				r.Spans[i] = SpanRec{Stage: d.u8(), StartNS: d.u64(), EndNS: d.u64()}
			}
		}
	default:
		return r, fmt.Errorf("journal: unknown record kind %d", r.Kind)
	}
	if d.err != nil {
		return r, d.err
	}
	if d.remaining() != 0 {
		return r, fmt.Errorf("journal: %d trailing bytes after %v record", d.remaining(), r.Kind)
	}
	return r, nil
}

// decoder is a bounds-checked little-endian cursor: reads past the end
// set err instead of panicking, so DecodeRecord survives any input.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("journal: record payload truncated at byte %d", d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.remaining() < 1 {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.remaining() < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.remaining() < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.remaining() < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bytes(n int) []byte {
	if n < 0 || d.remaining() < n {
		d.fail()
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}

// String renders a record for logs and the hcreplay audit listing.
func (r *Record) String() string {
	switch r.Kind {
	case KindBatch:
		if r.ID != "" {
			return fmt.Sprintf("batch n=%d id=%q", r.NTasks, r.ID)
		}
		return fmt.Sprintf("batch n=%d", r.NTasks)
	case KindArrive:
		return fmt.Sprintf("arrive seq=%d type=%d t=%d deadline=%d id=%q", r.Seq, r.Type, r.Tick, r.Deadline, r.ID)
	case KindDecision:
		act := [...]string{"map", "defer", "drop"}
		a := "?"
		if int(r.Action) < len(act) {
			a = act[r.Action]
		}
		return fmt.Sprintf("decision seq=%d action=%s machine=%d now=%d", r.Seq, a, r.Machine, r.Tick)
	case KindEvent:
		return fmt.Sprintf("event seq=%d status=%d t=%d", r.Seq, r.Action, r.Tick)
	case KindDrain:
		return fmt.Sprintf("drain t=%d", r.Tick)
	case KindMembership:
		return fmt.Sprintf("membership op=%d machine=%d type=%d handoff=%d t=%d", r.Action, r.Machine, r.Type, r.NTasks, r.Tick)
	case KindTrace:
		return fmt.Sprintf("trace seq=%d spans=%d", r.Seq, len(r.Spans))
	default:
		return fmt.Sprintf("record kind=%d", r.Kind)
	}
}
