package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStageNamesRoundTrip(t *testing.T) {
	for st := Stage(0); st < NumStages; st++ {
		name := st.String()
		if name == "" || strings.HasPrefix(name, "stage") {
			t.Fatalf("stage %d has no wire name", st)
		}
		back, ok := StageFromString(name)
		if !ok || back != st {
			t.Fatalf("StageFromString(%q) = %v, %v; want %v", name, back, ok, st)
		}
	}
	if _, ok := StageFromString("nope"); ok {
		t.Fatal("unknown stage name resolved")
	}
	if got := Stage(250).String(); got != "stage250" {
		t.Fatalf("out-of-range stage name = %q", got)
	}
}

func TestActiveMarkAndExtend(t *testing.T) {
	origin := time.Now()
	a := &Trace{Seq: 7, Start: origin}
	a.Mark(StageCalculus, origin.Add(10*time.Microsecond), origin.Add(30*time.Microsecond))
	// Extend on an unmarked stage behaves like Mark.
	a.Extend(StageJournal, origin.Add(40*time.Microsecond), origin.Add(50*time.Microsecond))
	// Extend widens in both directions but never shrinks.
	a.Extend(StageJournal, origin.Add(35*time.Microsecond), origin.Add(45*time.Microsecond))
	a.Extend(StageJournal, origin.Add(42*time.Microsecond), origin.Add(60*time.Microsecond))

	tel := New(1, 1, 4)
	tr := tel.Shard(0).Finish(a, 0, "map")
	if tr.Seq != 7 || len(tr.Spans) != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.Spans[0].Stage != StageCalculus || tr.Spans[0].Duration() != 20*time.Microsecond {
		t.Fatalf("calculus span = %+v", tr.Spans[0])
	}
	j := tr.Spans[1]
	if j.Stage != StageJournal || j.StartNS != int64(35*time.Microsecond) || j.EndNS != int64(60*time.Microsecond) {
		t.Fatalf("journal span = %+v, want [35µs, 60µs]", j)
	}
	if tr.Duration() != 60*time.Microsecond {
		t.Fatalf("trace duration = %v", tr.Duration())
	}
	if got := tel.Sampled(); got != 1 {
		t.Fatalf("sampled = %d", got)
	}
}

// TestStageHistogramObservesBusyTime pins what the journal stage reports:
// the arrive append and the decision append + commit bracket the engine
// feed, so the span's hull covers the calculus too — the histogram must
// see only the journal intervals' own 12 µs, the trace keeps the hull.
func TestStageHistogramObservesBusyTime(t *testing.T) {
	origin := time.Now()
	at := func(us int) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	a := &Trace{Seq: 1, Start: origin}
	a.Extend(StageJournal, at(10), at(12))
	a.Mark(StageCalculus, at(12), at(40))
	a.Extend(StageJournal, at(40), at(43))
	a.Extend(StageJournal, at(43), at(50))

	tel := New(1, 1, 4)
	tr := tel.Shard(0).Finish(a, 0, "map")
	if j := tr.Spans[0]; j.Stage != StageJournal || j.Duration() != 40*time.Microsecond {
		t.Fatalf("journal span = %+v, want the [10µs, 50µs] hull", j)
	}
	if got := time.Duration(tel.stages[StageJournal].sumNS.Load()); got != 12*time.Microsecond {
		t.Fatalf("journal stage observed %v, want the 12µs the intervals sum to", got)
	}
	if got := time.Duration(tel.stages[StageCalculus].sumNS.Load()); got != 28*time.Microsecond {
		t.Fatalf("calculus stage observed %v, want 28µs", got)
	}
}

func TestSamplerSelectsBySequence(t *testing.T) {
	tel := New(2, 4, 8)
	origin := time.Now()
	var hits []int64
	for seq := int64(0); seq < 12; seq++ {
		if a := tel.Begin(seq, origin); a != nil {
			hits = append(hits, seq)
			if a.Seq != seq || !a.Start.Equal(origin) {
				t.Fatalf("trace = seq %d origin %v", a.Seq, a.Start)
			}
		}
	}
	want := []int64{0, 4, 8}
	if len(hits) != len(want) {
		t.Fatalf("sampled %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("sampled %v, want %v", hits, want)
		}
	}

	off := New(1, 0, 8)
	if off.Enabled() {
		t.Fatal("sampleEvery=0 reports enabled")
	}
	if a := off.Begin(0, origin); a != nil {
		t.Fatal("disabled tracer sampled seq 0")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tel := New(1, 1, 4)
	rec := tel.Shard(0)
	origin := time.Now()
	for seq := int64(0); seq < 10; seq++ {
		a := &Trace{Seq: seq, Start: origin}
		a.Mark(StageAck, origin, origin.Add(time.Microsecond))
		rec.Finish(a, 0, "map")
	}
	traces := tel.Traces()
	if len(traces) != 4 {
		t.Fatalf("retained %d traces, want ring size 4", len(traces))
	}
	// Newest first, and only the last 4 sequences survive the wrap.
	for i, tr := range traces {
		if want := int64(9 - i); tr.Seq != want {
			t.Fatalf("traces[%d].Seq = %d, want %d", i, tr.Seq, want)
		}
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	in := Span{Stage: StageDropper, StartNS: 1500, EndNS: 2500}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"stage":"dropper"`) {
		t.Fatalf("span JSON = %s", blob)
	}
	var out Span
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if err := json.Unmarshal([]byte(`{"stage":"bogus","start_ns":0,"end_ns":0}`), &out); err == nil {
		t.Fatal("unknown stage unmarshalled")
	}
}

// TestWritePrometheusLintsClean feeds a populated tracer and the runtime
// collector through the package's own linter: the exposition this package
// emits must satisfy the grammar this package enforces.
func TestWritePrometheusLintsClean(t *testing.T) {
	tel := New(2, 1, 8)
	origin := time.Now()
	for seq := int64(0); seq < 6; seq++ {
		a := tel.Begin(seq, origin)
		a.Mark(StageRoute, origin, origin.Add(2*time.Microsecond))
		a.Mark(StageCalculus, origin.Add(2*time.Microsecond), origin.Add(40*time.Microsecond))
		a.Mark(StageAck, origin.Add(40*time.Microsecond), origin.Add(41*time.Microsecond))
		tel.Shard(int(seq)%2).Finish(a, int(seq)%2, "map")
	}
	var sb strings.Builder
	tel.WritePrometheus(NewWriter(&sb))
	if issues := Lint(strings.NewReader(sb.String())); len(issues) > 0 {
		t.Fatalf("tracer exposition fails lint:\n%s\nexposition:\n%s", strings.Join(issues, "\n"), sb.String())
	}

	sb.Reset()
	WriteRuntimeMetrics(NewWriter(&sb))
	if issues := Lint(strings.NewReader(sb.String())); len(issues) > 0 {
		t.Fatalf("runtime exposition fails lint:\n%s\nexposition:\n%s", strings.Join(issues, "\n"), sb.String())
	}
	if !strings.Contains(sb.String(), "taskdrop_go_goroutines") {
		t.Fatalf("runtime exposition missing goroutine gauge:\n%s", sb.String())
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	lg, err := NewLogger(&sb, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "shard", 3)
	out := sb.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("info leaked through warn level: %s", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("not JSON: %s", out)
	}
	if rec["msg"] != "kept" || rec["shard"] != float64(3) {
		t.Fatalf("record = %v", rec)
	}
	if _, err := NewLogger(&sb, "yaml", "info"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := NewLogger(&sb, "text", "verbose"); err == nil {
		t.Fatal("unknown level accepted")
	}
}
