package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileInterpolates(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // unsorted on purpose
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{ten, 0.5, 5.5},
		{ten, 0.9, 9.1},   // type 7: 1 + 0.9*(n-1)
		{ten, 0.99, 9.91}, // a tail on few samples interpolates, it does not read the maximum
		{ten, 0, 1},
		{ten, 1, 10},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the rule the benchmark's acceptance check is written in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // two points: the rule extrapolates
		{[]float64{3265, 3170, 3396, 3088, 3107, 3296, 3373, 3281, 3214, 3067}, 3102.25, 3239.5, 3315.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, false); !near(got, 0.10) {
		t.Errorf("lower-is-better metric rising 10%%: %v", got)
	}
	if got := worsening(100, 110, true); !near(got, -0.10) {
		t.Errorf("higher-is-better metric rising 10%%: %v", got)
	}
}

// TestSummarizeIsRoundMedian: a run's value is the median of its rounds'
// values, so one round in a busy regime does not move it; a latency is the
// median of per-round percentiles, never a percentile of pooled requests.
func TestSummarizeIsRoundMedian(t *testing.T) {
	round := func(tps, p50 float64) roundResult {
		return roundResult{
			e2e:       map[string]float64{"tasks_per_s": tps, "latency_p50_us": p50, "robustness_pct": 55, "disk_bytes_per_task": 858},
			layer:     map[string]float64{"client.latency_p99_us": 4 * p50},
			attempted: 100,
		}
	}
	s := summarize("w", []roundResult{round(3000, 270), round(2000, 900), round(3100, 260), round(2950, 280), round(3050, 265)})
	if s.e2e["tasks_per_s"] != 3000 || s.e2e["latency_p50_us"] != 270 || s.layer["client.latency_p99_us"] != 1080 {
		t.Errorf("medians: %v %v", s.e2e, s.layer)
	}
	if s.attempted != 500 || s.failed != 0 || len(s.errs) != 0 {
		t.Errorf("counts: attempted %d failed %d errs %v", s.attempted, s.failed, s.errs)
	}
	if q := s.e2eQ["tasks_per_s"]; q[0] >= q[1] {
		t.Errorf("round quartiles %v", q)
	}
	if s.layer["client.rounds_iqr_pct"] <= 0 {
		t.Error("no round spread reported")
	}

	// A round that decided differently is a failed oracle even though the
	// median hides it.
	odd := round(3000, 270)
	odd.e2e["robustness_pct"] = 54.9
	s = summarize("w", []roundResult{round(3000, 270), odd, round(3000, 270)})
	if len(s.errs) != 1 || s.failed != 1 {
		t.Errorf("diverging round not reported: errs %v failed %d", s.errs, s.failed)
	}
}

func TestRoundsFor(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{1, minRounds}, {defaultSeconds, 5}, {40, 10}} {
		if got := roundsFor(c.seconds); got != c.want {
			t.Errorf("roundsFor(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// TestSummarizeNormalisesByHostIndex: a run measured on a host 1.5x slower
// than the reference reports the timings the reference host would have
// read, keeps the raw ones, and leaves a schedule-pinned rate alone.
func TestSummarizeNormalisesByHostIndex(t *testing.T) {
	slow := hostSample{echoUS: refEchoUS * 1.5, spinNS: refSpinNS * 1.5} // index 1.5
	round := func(pinned bool) roundResult {
		return roundResult{
			e2e: map[string]float64{"setup_s": 0.015, "tasks_per_s": 2000, "latency_p50_us": 450, "cpu_us_per_task": 300,
				"robustness_pct": 55, "peak_rss_mb": 26, "disk_bytes_per_task": 858},
			layer: map[string]float64{}, host: slow, pinnedRate: pinned,
		}
	}
	s := summarize("w", []roundResult{round(false), round(false), round(false)})
	want := map[string]float64{"setup_s": 0.010, "tasks_per_s": 3000, "latency_p50_us": 300, "cpu_us_per_task": 200,
		"robustness_pct": 55, "peak_rss_mb": 26, "disk_bytes_per_task": 858}
	for k, v := range want {
		if !near(s.e2e[k], v) {
			t.Errorf("%s = %v, want %v", k, s.e2e[k], v)
		}
	}
	if !near(s.layer["host.index"], 1.5) || !near(s.layer["raw.latency_p50_us"], 450) || !near(s.layer["raw.tasks_per_s"], 2000) {
		t.Errorf("raw values and index: %v", s.layer)
	}
	if s = summarize("w", []roundResult{round(true), round(true)}); !near(s.e2e["tasks_per_s"], 2000) || !near(s.e2e["latency_p50_us"], 300) {
		t.Errorf("pinned rate: tasks_per_s %v (want 2000 untouched), latency %v (want 300)", s.e2e["tasks_per_s"], s.e2e["latency_p50_us"])
	}
}
