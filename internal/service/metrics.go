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

// Metrics is one shard's decision counters, written under its turn and read by
// scrapes — or, from Controller.Metrics, their sum: each decision, shed and
// sub-batch is counted once, so recovery restores the aggregate with them.
type Metrics struct {
	requests     atomic.Int64 // decide sub-batches processed
	ActionCounts              // tasks decided, by action
	shed         atomic.Int64 // sub-batches shed by a degraded shard (429)
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

// Total is the number of decisions tallied.
func (c *ActionCounts) Total() int64 { return c.mapped.Load() + c.deferred.Load() + c.dropped.Load() }

// WriteActions writes the map/defer/drop samples of the current family, after
// the given leading labels.
func (c *ActionCounts) WriteActions(x *telemetry.Writer, labels ...string) {
	x.Int(c.mapped.Load(), append(labels, "action", "map")...)
	x.Int(c.deferred.Load(), append(labels, "action", "defer")...)
	x.Int(c.dropped.Load(), append(labels, "action", "drop")...)
}

// DropRate returns the fraction of decided tasks rejected at admission.
func (m *Metrics) DropRate() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.dropped.Load()) / float64(t)
}

// Metrics returns the controller's aggregate decision counters, summed now.
func (c *Controller) Metrics() *Metrics {
	m := &Metrics{}
	for _, sh := range c.shards {
		o := sh.metrics
		m.requests.Add(o.requests.Load())
		m.mapped.Add(o.mapped.Load())
		m.deferred.Add(o.deferred.Load())
		m.dropped.Add(o.dropped.Load())
		m.shed.Add(o.shed.Load())
	}
	return m
}

// DecisionsPerSecond returns the mean decision throughput since start.
func (c *Controller) DecisionsPerSecond() float64 {
	el := time.Since(c.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(c.Metrics().Total()) / el
}

// writeMetrics renders the aggregate decision series: the shards' counters
// summed, and the controller's own rejections and latency. Engine gauges
// (queue depths, live task census) follow separately.
func (c *Controller) writeMetrics(x *telemetry.Writer) {
	m := c.Metrics()
	x.Counter("taskdrop_decide_requests_total", "Decide sub-batches processed, summed over shards.").Int(m.requests.Load())
	x.Counter("taskdrop_decisions_total", "Admission decisions by action.")
	m.WriteActions(x)
	x.Counter("taskdrop_rejected_requests_total", "Requests rejected before decision (validation).").Int(c.rejected.Load())
	x.Gauge("taskdrop_drop_rate", "Fraction of decided tasks dropped at admission.").Float(m.DropRate())
	x.Gauge("taskdrop_decisions_per_second", "Mean decision throughput since start.").Float(c.DecisionsPerSecond())
	x.Histogram("taskdrop_decision_latency_seconds", "Decision latency (receipt to decision).").Observed(c.latency)
}
