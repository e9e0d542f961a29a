package telemetry

import (
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// Writer is the only producer of Prometheus text exposition (format
// version 0.0.4) in the tree. A family is declared once — Counter, Gauge
// or Histogram write its HELP and TYPE lines — and every sample call that
// follows belongs to it: samples carry no name of their own, so a sample
// cannot precede its metadata or land in another family's block, and a
// histogram series is always cumulative buckets, "+Inf", _sum, then a
// _count equal to "+Inf". Declaring a family twice or sampling before any
// declaration is a bug in the caller and panics. One Writer serves one
// scrape; write errors are dropped, as a scrape whose peer has gone has
// nobody to report to.
type Writer struct {
	w        io.Writer
	buf      []byte
	family   string
	declared map[string]bool
}

// NewWriter starts an exposition on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, declared: make(map[string]bool)}
}

// Counter declares a counter family.
func (x *Writer) Counter(name, help string) *Writer { return x.declare(name, "counter", help) }

// Gauge declares a gauge family.
func (x *Writer) Gauge(name, help string) *Writer { return x.declare(name, "gauge", help) }

// Histogram declares a histogram family; its series are written with
// Observed, Buckets or IntBuckets.
func (x *Writer) Histogram(name, help string) *Writer { return x.declare(name, "histogram", help) }

func (x *Writer) declare(name, typ, help string) *Writer {
	if x.declared[name] {
		panic("telemetry: metric family " + name + " declared twice")
	}
	x.declared[name] = true
	x.family = name
	b := append(x.buf[:0], "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	x.flush(b)
	return x
}

// Int writes one integer-valued sample of the current counter or gauge.
// labels are name, value pairs.
func (x *Writer) Int(v int64, labels ...string) {
	x.flush(strconv.AppendInt(x.sample("", labels), v, 10))
}

// Uint is Int for unsigned counters.
func (x *Writer) Uint(v uint64, labels ...string) {
	x.flush(strconv.AppendUint(x.sample("", labels), v, 10))
}

// Float writes one float-valued sample of the current counter or gauge.
func (x *Writer) Float(v float64, labels ...string) {
	x.flush(appendFloat(x.sample("", labels), v))
}

// Observed writes one series of the current histogram family from a live
// Histogram.
func (x *Writer) Observed(h *Histogram, labels ...string) {
	counts := make([]uint64, len(h.counts))
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	x.Buckets(h.bounds, counts, float64(h.sumNS.Load())/1e9, labels...)
}

// Buckets writes one series of the current histogram family from counts
// computed elsewhere: counts[i] observations fell in (bounds[i-1],
// bounds[i]], and the last of its len(bounds)+1 entries is the overflow
// bucket.
func (x *Writer) Buckets(bounds []float64, counts []uint64, sum float64, labels ...string) {
	n := x.bucketLines(bounds, counts, labels)
	x.flush(appendFloat(x.sample("_sum", labels), sum))
	x.flush(strconv.AppendUint(x.sample("_count", labels), n, 10))
}

// IntBuckets is Buckets for integer-valued observations, whose sum prints
// as an integer.
func (x *Writer) IntBuckets(bounds []float64, counts []uint64, sum uint64, labels ...string) {
	n := x.bucketLines(bounds, counts, labels)
	x.flush(strconv.AppendUint(x.sample("_sum", labels), sum, 10))
	x.flush(strconv.AppendUint(x.sample("_count", labels), n, 10))
}

// bucketLines writes the cumulative _bucket lines and returns the total.
func (x *Writer) bucketLines(bounds []float64, counts []uint64, labels []string) uint64 {
	if len(counts) != len(bounds)+1 {
		panic("telemetry: " + x.family + ": bucket counts do not match bounds")
	}
	series := append(labels[:len(labels):len(labels)], "le", "+Inf")
	le := &series[len(labels)+1]
	var cum uint64
	for i, c := range counts {
		cum += c
		if *le = "+Inf"; i < len(bounds) {
			*le = string(appendFloat(nil, bounds[i]))
		}
		x.flush(strconv.AppendUint(x.sample("_bucket", series), cum, 10))
	}
	return cum
}

// sample starts one sample line of the current family — name, suffix,
// label set and the separating space — and returns it for the value to be
// appended.
func (x *Writer) sample(suffix string, labels []string) []byte {
	if x.family == "" {
		panic("telemetry: sample before any family declaration")
	}
	b := append(x.buf[:0], x.family...)
	b = append(b, suffix...)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		b = append(b, sep)
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
		sep = ','
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// flush terminates and writes the line in b, keeping its storage.
func (x *Writer) flush(b []byte) {
	x.buf = append(b, '\n')
	_, _ = x.w.Write(x.buf)
}

// appendFloat formats a float the way the exposition always has (%g).
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// Histogram is the tree's one latency histogram: fixed upper bounds in
// seconds, safe for concurrent Observe and scrape.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the overflow bucket
	sumNS  atomic.Int64
}

// NewHistogram builds a histogram over ascending upper bounds (seconds).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
}
