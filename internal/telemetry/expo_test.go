package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestWriterExposition pins the text the writer produces for each sample
// kind: value formats, label quoting, and the histogram series shape
// (cumulative buckets with inclusive upper bounds, +Inf, _sum, _count).
func TestWriterExposition(t *testing.T) {
	var sb strings.Builder
	x := NewWriter(&sb)
	x.Counter("t_ops_total", "Ops.").Int(3)
	x.Gauge("t_depth", "Depth per queue.")
	x.Int(-2, "queue", `a"b`, "shard", "0")
	x.Uint(1<<63, "queue", "c")
	x.Gauge("t_rate", "Rate.").Float(2500000)
	h := NewHistogram([]float64{1e-3, 5e-3})
	h.Observe(time.Millisecond) // on the bound: counted in le="0.001"
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Second)
	x.Histogram("t_latency_seconds", "Latency.").Observed(h, "stage", "ack")
	x.Histogram("t_width", "Widths.").IntBuckets([]float64{1, 2}, []uint64{0, 4, 1}, 2000000)

	const want = `# HELP t_ops_total Ops.
# TYPE t_ops_total counter
t_ops_total 3
# HELP t_depth Depth per queue.
# TYPE t_depth gauge
t_depth{queue="a\"b",shard="0"} -2
t_depth{queue="c"} 9223372036854775808
# HELP t_rate Rate.
# TYPE t_rate gauge
t_rate 2.5e+06
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{stage="ack",le="0.001"} 1
t_latency_seconds_bucket{stage="ack",le="0.005"} 2
t_latency_seconds_bucket{stage="ack",le="+Inf"} 3
t_latency_seconds_sum{stage="ack"} 1.003
t_latency_seconds_count{stage="ack"} 3
# HELP t_width Widths.
# TYPE t_width histogram
t_width_bucket{le="1"} 0
t_width_bucket{le="2"} 4
t_width_bucket{le="+Inf"} 5
t_width_sum 2000000
t_width_count 5
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if issues := Lint(strings.NewReader(sb.String())); len(issues) > 0 {
		t.Fatalf("writer output fails lint:\n%s", strings.Join(issues, "\n"))
	}
}

// TestWriterRejectsMisuse: the two orderings the writer exists to rule out
// are caller bugs, reported by panic.
func TestWriterRejectsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func(x *Writer)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn(NewWriter(&strings.Builder{}))
	}
	mustPanic("sample before any family", func(x *Writer) { x.Int(1) })
	mustPanic("family declared twice", func(x *Writer) {
		x.Counter("t_total", "T.").Int(1)
		x.Gauge("t_other", "O.").Int(1)
		x.Counter("t_total", "T.")
	})
	mustPanic("bucket counts without an overflow entry", func(x *Writer) {
		x.Histogram("t_h", "H.").Buckets([]float64{1, 2}, []uint64{1, 1}, 0)
	})
}
