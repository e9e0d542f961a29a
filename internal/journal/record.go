package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/varint"
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

// Frame and record limits. A record is tiny (an arrive with a dozen machine
// types and a short label stays under 100 bytes); the caps exist so a
// corrupt count cannot make the reader allocate wildly. A frame is bounded
// by the bytes its segment holds, not by a cap (see scanFrames).
const (
	frameHeader  = 8 // u32 length + u32 crc
	maxExecTypes = 4096
	maxSpans     = 64
	// frameVersion leads every commit frame's payload. 2: each input record
	// precedes the records it causes (1 logged drain and membership after
	// theirs). 3: every integer field is a varint (2 wrote them fixed-width).
	// 4: one frame per commit, its records length-delimited (3 framed and
	// versioned each record).
	frameVersion = 4
)

// MaxIDLen caps a record's ID: a task's client label (arrive records) or
// a request's decision ID (batch records). Admission refuses a longer one,
// and AppendRecord panics on it, so no log holds an ID its reader refuses.
const MaxIDLen = 1 << 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends r as a commit frame holds it — its encoding's
// length as an unsigned varint, then the encoding — and returns the
// extended slice. It allocates only when buf lacks capacity, so a
// single-writer loop reusing its buffer appends allocation-free.
//
// The encoding is the kind byte and the kind's fields. Every signed field
// is a zigzag varint, every length, count and span offset an unsigned
// varint; the action, span-count and stage fields are single bytes. Each
// field stands alone (no deltas), so one record decodes without its
// neighbours.
func AppendRecord(buf []byte, r *Record) []byte {
	at := len(buf)
	buf = append(buf, 0) // the length: one byte holds any under 128
	buf = appendBody(buf, r)
	n := len(buf) - at - 1
	if n < 0x80 {
		buf[at] = byte(n)
		return buf
	}
	var l [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(l[:], uint64(n))
	buf = append(buf, l[1:k]...)
	copy(buf[at+k:], buf[at+1:at+1+n])
	copy(buf[at:], l[:k])
	return buf
}

// appendBody appends r's encoding: its kind byte and fields.
func appendBody(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KindBatch:
		buf = binary.AppendVarint(buf, int64(r.NTasks))
		// The decision ID is a trailing optional field: an ID-less batch ends
		// after NTasks, and the decoder reads it only when bytes remain.
		if r.ID != "" {
			buf = appendID(buf, r.ID)
		}
	case KindArrive:
		buf = binary.AppendVarint(buf, r.Seq)
		buf = binary.AppendVarint(buf, int64(r.Type))
		buf = binary.AppendVarint(buf, int64(r.Tick))
		buf = binary.AppendVarint(buf, int64(r.Deadline))
		buf = binary.AppendUvarint(buf, uint64(len(r.Exec)))
		for _, x := range r.Exec {
			buf = binary.AppendVarint(buf, int64(x))
		}
		buf = appendID(buf, r.ID)
	case KindDecision:
		buf = binary.AppendVarint(buf, r.Seq)
		buf = append(buf, r.Action)
		buf = binary.AppendVarint(buf, int64(r.Machine))
		buf = binary.AppendVarint(buf, int64(r.Tick))
	case KindEvent:
		buf = binary.AppendVarint(buf, r.Seq)
		buf = append(buf, r.Action)
		buf = binary.AppendVarint(buf, int64(r.Tick))
	case KindDrain:
		buf = binary.AppendVarint(buf, int64(r.Tick))
	case KindMembership:
		buf = append(buf, r.Action)
		buf = binary.AppendVarint(buf, int64(r.Machine))
		buf = binary.AppendVarint(buf, int64(r.Type))
		buf = binary.AppendVarint(buf, int64(r.NTasks))
		buf = binary.AppendVarint(buf, int64(r.Tick))
	case KindTrace:
		if len(r.Spans) > maxSpans {
			panic(fmt.Sprintf("journal: trace record with %d spans, cap %d", len(r.Spans), maxSpans))
		}
		buf = binary.AppendVarint(buf, r.Seq)
		buf = append(buf, uint8(len(r.Spans)))
		for _, sp := range r.Spans {
			buf = append(buf, sp.Stage)
			buf = binary.AppendUvarint(buf, sp.StartNS)
			buf = binary.AppendUvarint(buf, sp.EndNS)
		}
	default:
		panic(fmt.Sprintf("journal: encoding unknown record kind %d", r.Kind))
	}
	return buf
}

// appendID appends id length-prefixed, refusing one past MaxIDLen.
func appendID(buf []byte, id string) []byte {
	if len(id) > MaxIDLen {
		panic(fmt.Sprintf("journal: %d-byte id, cap %d", len(id), MaxIDLen))
	}
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	return append(buf, id...)
}

// openFrame appends the start of a commit frame to buf: a frameHeader
// placeholder sealFrame fills in, then the version byte. AppendRecord adds
// the records.
func openFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, frameVersion)
}

// sealFrame fills in the header of frame — frameHeader placeholder bytes
// and the payload after them — with the payload's length and CRC-32C.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
}

// decodeFrame parses one commit frame's payload (the bytes after the frame
// header, CRC already verified), decoding each of its records into r and
// handing r to fn (when non-nil), and returns how many it decoded. r's
// storage is reused from record to record, so fn copies what it keeps
// (Record.Clone). It accepts only what a writer seals: the present
// version, at least one record, and each record's length a canonical
// varint, non-zero, within the frame and exactly its record's canonical
// encoding (DecodeRecord) — so every payload it accepts re-encodes to
// itself. A frame of another version is refused by name
// before any record is read: there is one reader. An error from fn stops
// the decode and is returned as it is.
func decodeFrame(payload []byte, r *Record, fn func(*Record) error) (int, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("journal: empty frame")
	}
	if v := payload[0]; v != frameVersion {
		return 0, fmt.Errorf("journal: record version %d, want %d", v, frameVersion)
	}
	if len(payload) == 1 {
		return 0, fmt.Errorf("journal: frame holds no record")
	}
	d := varint.NewReader(payload[1:], "journal:")
	i := 0
	for ; d.Remaining() > 0; i++ {
		n := d.Count(d.Remaining(), 1)
		if d.Err() != nil {
			return i, fmt.Errorf("journal: record %d: %w", i, d.Err())
		}
		if n == 0 {
			return i, fmt.Errorf("journal: record %d is empty", i)
		}
		if err := r.decode(d.Bytes(n)); err != nil {
			return i, fmt.Errorf("journal: record %d: %w", i, err)
		}
		if fn != nil {
			if err := fn(r); err != nil {
				return i, err
			}
		}
	}
	return i, nil
}

// DecodeRecord parses one record's encoding (its kind byte and fields, the
// bytes its length in the frame delimits). It never panics on hostile
// input and accepts only the canonical encoding: an overlong varint, a
// value outside its field's type, a count or length past the bytes left,
// or a byte after the last field is an error, so every encoding it accepts
// re-encodes to itself.
func DecodeRecord(b []byte) (Record, error) {
	var r Record
	err := r.decode(b)
	return r, err
}

// decode is DecodeRecord into r, reusing the storage of r's Exec and
// Spans: a scan decodes every record of a segment into one Record.
func (r *Record) decode(b []byte) error {
	*r = Record{Exec: r.Exec[:0], Spans: r.Spans[:0]}
	d := varint.NewReader(b, "journal: record")
	r.Kind = Kind(d.U8())
	switch r.Kind {
	case KindBatch:
		r.NTasks = d.Int32()
		if r.NTasks < 0 {
			return fmt.Errorf("journal: batch record with %d tasks", r.NTasks)
		}
		if d.Err() == nil && d.Remaining() > 0 {
			// Present only when non-empty: an empty trailing ID is not the
			// canonical form of an ID-less batch.
			if r.ID = readID(&d); d.Err() == nil && r.ID == "" {
				return fmt.Errorf("journal: batch record with an empty trailing id")
			}
		}
	case KindArrive:
		r.Seq = d.Varint()
		r.Type = d.Int32()
		r.Tick = pmf.Tick(d.Varint())
		r.Deadline = pmf.Tick(d.Varint())
		// Each entry takes at least one byte: a count past the bytes left
		// fails here, before the slice is allocated.
		if n := d.Count(maxExecTypes, 1); n > 0 {
			r.Exec = slices.Grow(r.Exec, n)[:n]
			for i := range r.Exec {
				r.Exec[i] = pmf.Tick(d.Varint())
			}
		}
		r.ID = readID(&d)
	case KindDecision:
		r.Seq = d.Varint()
		r.Action = d.U8()
		r.Machine = d.Int32()
		r.Tick = pmf.Tick(d.Varint())
	case KindEvent:
		r.Seq = d.Varint()
		r.Action = d.U8()
		r.Tick = pmf.Tick(d.Varint())
	case KindDrain:
		r.Tick = pmf.Tick(d.Varint())
	case KindMembership:
		r.Action = d.U8()
		r.Machine = d.Int32()
		r.Type = d.Int32()
		r.NTasks = d.Int32()
		r.Tick = pmf.Tick(d.Varint())
		if d.Err() == nil && r.Action > MemberRevive {
			return fmt.Errorf("journal: membership record with op %d", r.Action)
		}
	case KindTrace:
		r.Seq = d.Varint()
		// A span is a stage byte and two varints: three bytes at least.
		if n := d.Bound(uint64(d.U8()), maxSpans, 3); n > 0 {
			r.Spans = slices.Grow(r.Spans, n)[:n]
			for i := range r.Spans {
				r.Spans[i] = SpanRec{Stage: d.U8(), StartNS: d.Uvarint(), EndNS: d.Uvarint()}
			}
		}
	default:
		return fmt.Errorf("journal: unknown record kind %d", r.Kind)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w (kind %d)", err, r.Kind)
	}
	return nil
}

// Clone returns a copy of r that shares no storage with it, an empty Exec
// or Spans nil as DecodeRecord leaves it: what a scan callback keeps of
// the record it is handed, which the scan reuses.
func (r *Record) Clone() Record {
	c := *r
	c.Exec, c.Spans = nil, nil
	if len(r.Exec) > 0 {
		c.Exec = slices.Clone(r.Exec)
	}
	if len(r.Spans) > 0 {
		c.Spans = slices.Clone(r.Spans)
	}
	return c
}

// readID reads a length-prefixed ID.
func readID(d *varint.Reader) string {
	return string(d.Bytes(d.Count(MaxIDLen, 1)))
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
