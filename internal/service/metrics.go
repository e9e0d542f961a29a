package service

import (
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// latencyBuckets are the upper bounds (seconds) of the decision-latency
// histogram — decision work is convolution-bound and typically lands in
// the tens-of-microseconds to low-milliseconds range.
var latencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
}

// Metrics aggregates the service's operational counters. Counters are
// atomics: the decision loop is the single writer for decision counters,
// but HTTP handler goroutines record latencies and scrapes read everything
// concurrently.
type Metrics struct {
	start time.Time

	requests atomic.Int64 // decide requests processed
	tasks    atomic.Int64 // tasks decided
	ActionCounts
	rejected atomic.Int64 // malformed specs rejected before reaching the loop
	shed     atomic.Int64 // sub-batches shed by a degraded shard (429)
	// latency is the end-to-end decision latency over HTTP: request receipt
	// to decision, including queueing behind the single-writer loop.
	latency *telemetry.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), latency: telemetry.NewHistogram(latencyBuckets)}
}

// ActionCounts tallies admission decisions by action: the counter triple
// both tiers keep and expose (dropped = drop decisions at admission, i.e.
// reactive at arrival).
type ActionCounts struct{ mapped, deferred, dropped atomic.Int64 }

// Count tallies one decision.
func (c *ActionCounts) Count(a Action) {
	switch a {
	case ActionMap:
		c.mapped.Add(1)
	case ActionDefer:
		c.deferred.Add(1)
	case ActionDrop:
		c.dropped.Add(1)
	}
}

// WriteActions writes the map/defer/drop samples of the current family, after
// the given leading labels.
func (c *ActionCounts) WriteActions(x *telemetry.Writer, labels ...string) {
	x.Int(c.mapped.Load(), append(labels, "action", "map")...)
	x.Int(c.deferred.Load(), append(labels, "action", "defer")...)
	x.Int(c.dropped.Load(), append(labels, "action", "drop")...)
}

// countDecision tallies one admission decision.
func (m *Metrics) countDecision(a Action) {
	m.tasks.Add(1)
	m.Count(a)
}

// DropRate returns the fraction of decided tasks rejected at admission.
func (m *Metrics) DropRate() float64 {
	t := m.tasks.Load()
	if t == 0 {
		return 0
	}
	return float64(m.dropped.Load()) / float64(t)
}

// DecisionsPerSecond returns the mean decision throughput since start.
func (m *Metrics) DecisionsPerSecond() float64 {
	el := time.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.tasks.Load()) / el
}

// write renders the aggregate decision series. Engine gauges (queue
// depths, live task census) are appended by the controller, which owns
// that state.
func (m *Metrics) write(x *telemetry.Writer) {
	x.Counter("taskdrop_decide_requests_total", "Decide requests processed.").Int(m.requests.Load())
	x.Counter("taskdrop_decisions_total", "Admission decisions by action.")
	m.WriteActions(x)
	x.Counter("taskdrop_rejected_requests_total", "Requests rejected before decision (validation).").Int(m.rejected.Load())
	x.Gauge("taskdrop_drop_rate", "Fraction of decided tasks dropped at admission.").Float(m.DropRate())
	x.Gauge("taskdrop_decisions_per_second", "Mean decision throughput since start.").Float(m.DecisionsPerSecond())
	x.Histogram("taskdrop_decision_latency_seconds", "Decision latency (receipt to decision).").Observed(m.latency)
}
