package telemetry

import (
	"math"
	"runtime/metrics"
)

// gcPauseBuckets collapses the runtime's fine-grained GC pause histogram
// into fixed Prometheus bounds (seconds): sub-10µs pauses are the
// expected steady state, anything beyond 10ms is worth an alert.
var gcPauseBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// runtimeSampleNames are the runtime/metrics series the exposition reads.
// Indexes match the switch in WriteRuntimeMetrics.
var runtimeSampleNames = [...]string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

// WriteRuntimeMetrics renders Go runtime health series (goroutines, heap,
// GC cycles and pauses) from runtime/metrics in Prometheus text format.
// It allocates its sample slice per call so concurrent scrapes never
// share buffers. Series whose runtime counterpart is unavailable are
// omitted rather than emitted empty.
func WriteRuntimeMetrics(x *Writer) {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)

	emitUint := func(i int, declare func(name, help string) *Writer, name, help string) {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			declare(name, help).Uint(samples[i].Value.Uint64())
		}
	}
	emitUint(0, x.Gauge, "taskdrop_go_goroutines", "Live goroutines.")
	emitUint(1, x.Gauge, "taskdrop_go_heap_objects_bytes", "Bytes occupied by live and unswept heap objects.")
	emitUint(2, x.Gauge, "taskdrop_go_memory_total_bytes", "Total bytes of memory mapped by the Go runtime.")
	emitUint(3, x.Counter, "taskdrop_go_gc_cycles_total", "Completed GC cycles.")

	if samples[4].Value.Kind() != metrics.KindFloat64Histogram {
		return
	}
	h := samples[4].Value.Float64Histogram()
	if h == nil {
		return
	}
	counts := make([]uint64, len(gcPauseBuckets)+1)
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		// Bucket i covers [Buckets[i], Buckets[i+1]); fold its count into
		// the first fixed bound that contains its upper edge, and
		// approximate the sum with that edge (lower edge for the +Inf
		// bucket) — an upper bound on total pause time.
		ub := h.Buckets[i+1]
		j := 0
		for ; j < len(gcPauseBuckets); j++ {
			if ub <= gcPauseBuckets[j] {
				break
			}
		}
		counts[j] += c
		if math.IsInf(ub, 1) {
			ub = h.Buckets[i]
		}
		sum += float64(c) * ub
	}
	x.Histogram("taskdrop_go_gc_pause_seconds", "Stop-the-world GC pause latency (runtime/metrics /gc/pauses, rebinned; sum approximated by bucket upper bounds).").
		Buckets(gcPauseBuckets, counts, sum)
}
