// Package telemetry is the admission service's self-observation layer: a
// low-overhead, sampling-aware tracer that times every stage of a sampled
// decision (route → shard mailbox wait → Eq. 1 calculus → dropper verdict
// → journal append/fsync → ack), plus the shared plumbing the service's
// observability surface is built from — the Prometheus exposition Writer
// and the Histogram every latency series of both tiers goes through, a
// text-format linter that shares no code with them, runtime/metrics
// exposition and a slog constructor for the CLIs.
//
// # Design constraints
//
// The decision path is allocation-free in steady state and the paper's
// whole argument is latency, so the tracer must be invisible when off and
// cheap when on:
//
//   - Sampling is decided by sequence number (seq % every == 0), so it is
//     deterministic, cluster-wide consistent, and — crucially — decided
//     without reading a clock. A disabled tracer (every = 0) costs one
//     predictable branch per request and zero allocations.
//   - An Active trace is a single small allocation owned by the request's
//     goroutine and then by the shard's turn holder; stages record (start, end)
//     offsets from one origin timestamp into a fixed array, no locks.
//   - Completed traces are published into a per-shard lock-free ring of
//     atomic pointers: the shard's turn holder stores, scrapes load. No scrape can
//     ever stall a decision.
//   - Tracing is observational by construction: it never influences
//     routing, sequencing or the dropper verdict, so sampled and unsampled
//     runs produce identical decision sequences (asserted by the service's
//     determinism test).
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Stage identifies one timed segment of a decision's lifecycle. The
// numeric values appear on disk in journal trace records; never reorder.
type Stage uint8

const (
	// StageRoute covers request receipt to asking for the shard's turn:
	// validation, sequence assignment and the router's shard pick.
	StageRoute Stage = iota
	// StageWait is the wait for the shard's turn: asking for it until
	// holding it, behind the operations that asked first.
	StageWait
	// StageCalculus is the engine feed: clock advance, reactive sweep,
	// the Eq. 1 completion-time chains and the mapping event.
	StageCalculus
	// StageDropper is the proactive dropping policy's verdict time,
	// accumulated over its per-machine Decide calls (it runs inside the
	// calculus stage; see TimedPolicy).
	StageDropper
	// StageJournal covers WAL record encoding and the commit (flush +
	// fsync under SyncAlways) that makes the sub-batch durable.
	StageJournal
	// StageAck is the tail after durability, under the shard's turn:
	// response slots are filled and the traces sealed.
	StageAck
	// StageProxy is the router tier's upstream hop: the proxied decide
	// request leaving the front-end until the backend's response is decoded
	// (retries included). Only cmd/hcrouter records it; in-process shard
	// decisions have no proxy hop.
	StageProxy

	// NumStages is the number of trace stages. Stages are append-only: the
	// numeric values live in journal trace records.
	NumStages
)

var stageNames = [NumStages]string{
	"route", "wait", "calculus", "dropper", "journal", "ack", "proxy",
}

// String returns the stage's wire name (used in metric labels, trace JSON
// and the hcreplay audit listing).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage%d", uint8(s))
}

// StageFromString resolves a wire name back to its Stage.
func StageFromString(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Span is one timed stage of a trace: [start, end) offsets in nanoseconds
// from the trace origin (request receipt). Offsets rather than absolute
// times keep spans comparable within a trace and meaningful after a
// journal round trip.
type Span struct {
	Stage   Stage
	StartNS int64
	EndNS   int64
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

type spanJSON struct {
	Stage   string `json:"stage"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// MarshalJSON renders the stage by name.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{Stage: s.Stage.String(), StartNS: s.StartNS, EndNS: s.EndNS})
}

// UnmarshalJSON parses the named-stage form (cmd/obslint consumes it).
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	st, ok := StageFromString(j.Stage)
	if !ok {
		return fmt.Errorf("telemetry: unknown stage %q", j.Stage)
	}
	*s = Span{Stage: st, StartNS: j.StartNS, EndNS: j.EndNS}
	return nil
}

// Trace is one sampled decision's completed stage timing. Its identity is
// the decision's cluster-wide sequence number. A published Trace is
// immutable: rings and scrapes share pointers to it.
type Trace struct {
	Seq    int64     `json:"seq"`
	Shard  int       `json:"shard"`
	Action string    `json:"action"`
	Start  time.Time `json:"start"`
	Spans  []Span    `json:"spans"`
}

// Duration returns the end offset of the last recorded span — the traced
// part of the decision's life.
func (t *Trace) Duration() time.Duration {
	var max int64
	for _, sp := range t.Spans {
		if sp.EndNS > max {
			max = sp.EndNS
		}
	}
	return time.Duration(max)
}

// Active is an in-flight trace. It is plain data owned by exactly one
// goroutine at a time (the request goroutine until it asks for the shard's
// turn, the turn's holder after), so Mark and Extend need no
// synchronization.
type Active struct {
	seq    int64
	origin time.Time
	mask   uint32
	spans  [NumStages]Span
	// busy is the summed length of the intervals recorded for each stage.
	// It equals the span for a stage recorded once; for an Extended stage
	// the span is the hull, which also covers whatever ran between the
	// intervals, and busy is the stage's own time.
	busy [NumStages]time.Duration
}

// Seq returns the decision sequence number being traced.
func (a *Active) Seq() int64 { return a.seq }

// Origin returns the trace origin (request receipt).
func (a *Active) Origin() time.Time { return a.origin }

// Mark records stage st as [start, end), replacing any prior recording.
func (a *Active) Mark(st Stage, start, end time.Time) {
	a.spans[st] = Span{
		Stage:   st,
		StartNS: int64(start.Sub(a.origin)),
		EndNS:   int64(end.Sub(a.origin)),
	}
	a.busy[st] = end.Sub(start)
	a.mask |= 1 << st
}

// Extend widens stage st to cover [start, end) as well — Mark semantics on
// first use. The dropper span accumulates one Decide call per machine this
// way, and the journal span merges the arrive append, the decision append
// and the sub-batch commit. The span keeps the hull of the intervals for
// the trace timeline; their summed length is what the stage histogram
// observes (see Finish), so the engine feed that runs between the journal
// appends is not counted as journal time.
func (a *Active) Extend(st Stage, start, end time.Time) {
	if a.mask&(1<<st) == 0 {
		a.Mark(st, start, end)
		return
	}
	a.busy[st] += end.Sub(start)
	sp := &a.spans[st]
	if s := int64(start.Sub(a.origin)); s < sp.StartNS {
		sp.StartNS = s
	}
	if e := int64(end.Sub(a.origin)); e > sp.EndNS {
		sp.EndNS = e
	}
}

// ring is a lock-free bounded buffer of completed traces: one shard's
// turn holder stores into successive slots, concurrent scrapes load. Readers may
// observe a torn window across a wrap (a mix of generations), never a torn
// trace.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func newRing(size int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], size)}
}

func (r *ring) put(t *Trace) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

func (r *ring) snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// stageLatencyBuckets are the per-stage latency histogram bounds
// (seconds). Stages span three orders of magnitude: mailbox waits and acks
// sit in the microseconds, the calculus in the tens-to-hundreds of
// microseconds, journal commits under SyncAlways in the milliseconds.
var stageLatencyBuckets = []float64{
	1e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 1e-3, 5e-3, 25e-3, 100e-3,
}

// ShardRecorder is one shard's tracer endpoint. The active field makes
// the in-flight trace visible to instrumentation nested inside the engine
// feed (TimedPolicy) without threading it through the sim package: it is
// written and read only by the holder of the shard's turn.
type ShardRecorder struct {
	t      *Telemetry
	ring   *ring
	active *Active
}

// Begin installs a as the shard's in-flight trace (nested instrumentation
// picks it up). Turn holder only.
func (r *ShardRecorder) Begin(a *Active) { r.active = a }

// End clears the in-flight trace. Turn holder only.
func (r *ShardRecorder) End() { r.active = nil }

// Active returns the shard's in-flight trace, nil outside a sampled feed.
func (r *ShardRecorder) Active() *Active { return r.active }

// Finish seals a into an immutable Trace, feeds the per-stage latency
// histograms (each stage's busy time: the sum of its recorded intervals,
// not the hull an Extended span displays) and publishes it into the
// shard's ring. Returns the trace so the caller can also journal it.
func (r *ShardRecorder) Finish(a *Active, shard int, action string) *Trace {
	tr := &Trace{
		Seq:    a.seq,
		Shard:  shard,
		Action: action,
		Start:  a.origin,
		Spans:  make([]Span, 0, NumStages),
	}
	for st := Stage(0); st < NumStages; st++ {
		if a.mask&(1<<st) == 0 {
			continue
		}
		sp := a.spans[st]
		tr.Spans = append(tr.Spans, sp)
		r.t.stages[st].Observe(a.busy[st])
	}
	// Stage enum order is not wall-clock order (the arrive-journal write
	// precedes the calculus); present spans as a timeline.
	sort.Slice(tr.Spans, func(i, j int) bool { return tr.Spans[i].StartNS < tr.Spans[j].StartNS })
	r.t.sampled.Add(1)
	r.ring.put(tr)
	return tr
}

// Telemetry is the service-wide tracer: the sampling policy, one recorder
// (and trace ring) per shard, and the shared stage-latency histograms.
type Telemetry struct {
	every   uint64
	recs    []*ShardRecorder
	stages  [NumStages]*Histogram
	sampled atomic.Uint64
}

// DefaultRingSize is the per-shard trace retention when the caller does
// not choose one.
const DefaultRingSize = 256

// New builds a tracer for the given shard count. sampleEvery selects
// every Nth decision by sequence number (0 or negative disables tracing
// entirely); ringSize bounds retained traces per shard (<= 0 uses
// DefaultRingSize).
func New(shards, sampleEvery, ringSize int) *Telemetry {
	if shards < 1 {
		shards = 1
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	t := &Telemetry{}
	for st := range t.stages {
		t.stages[st] = NewHistogram(stageLatencyBuckets)
	}
	if sampleEvery > 0 {
		t.every = uint64(sampleEvery)
	}
	t.recs = make([]*ShardRecorder, shards)
	for i := range t.recs {
		t.recs[i] = &ShardRecorder{t: t, ring: newRing(ringSize)}
	}
	return t
}

// Enabled reports whether any decision is sampled.
func (t *Telemetry) Enabled() bool { return t.every > 0 }

// SampleEvery returns the sampling period (0 = disabled).
func (t *Telemetry) SampleEvery() int { return int(t.every) }

// Begin returns a fresh Active trace if seq is sampled, nil otherwise.
// The disabled path is one branch, no clock read, no allocation.
func (t *Telemetry) Begin(seq int64, origin time.Time) *Active {
	if t.every == 0 || uint64(seq)%t.every != 0 {
		return nil
	}
	return &Active{seq: seq, origin: origin}
}

// Shard returns shard s's recorder.
func (t *Telemetry) Shard(s int) *ShardRecorder { return t.recs[s] }

// Sampled returns the number of completed traces.
func (t *Telemetry) Sampled() uint64 { return t.sampled.Load() }

// Traces snapshots every shard's ring, newest decision first.
func (t *Telemetry) Traces() []*Trace {
	var out []*Trace
	for _, r := range t.recs {
		out = append(out, r.ring.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// WritePrometheus renders the tracer's series: sampling configuration,
// trace count, and the per-stage latency histogram (one histogram family
// with a stage label).
func (t *Telemetry) WritePrometheus(x *Writer) {
	x.Gauge("taskdrop_trace_sample_every", "Stage-trace sampling period (0 = disabled).").Uint(t.every)
	x.Counter("taskdrop_traces_sampled_total", "Decisions captured as stage-timed traces.").Uint(t.sampled.Load())
	x.Histogram("taskdrop_decision_stage_latency_seconds", "Sampled per-stage decision latency (route, wait, calculus, dropper, journal, ack, proxy).")
	for st := Stage(0); st < NumStages; st++ {
		x.Observed(t.stages[st], "stage", st.String())
	}
}
