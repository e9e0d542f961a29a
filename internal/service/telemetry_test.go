package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// requireCompleteTrace asserts a finished trace covers the stages every
// decision passes through (route, wait, calculus, ack — dropper and
// journal are conditional) with sane, ordered bounds.
func requireCompleteTrace(t *testing.T, tr *telemetry.Trace) {
	t.Helper()
	seen := make(map[telemetry.Stage]bool, len(tr.Spans))
	prev := int64(-1)
	for _, sp := range tr.Spans {
		if sp.StartNS < 0 || sp.EndNS < sp.StartNS {
			t.Fatalf("seq %d: span %s has bounds [%d, %d]", tr.Seq, sp.Stage, sp.StartNS, sp.EndNS)
		}
		if sp.StartNS < prev {
			t.Fatalf("seq %d: spans not sorted by start", tr.Seq)
		}
		prev = sp.StartNS
		seen[sp.Stage] = true
	}
	for _, st := range []telemetry.Stage{telemetry.StageRoute, telemetry.StageWait, telemetry.StageCalculus, telemetry.StageAck} {
		if !seen[st] {
			t.Fatalf("seq %d: trace lacks stage %s: %+v", tr.Seq, st, tr.Spans)
		}
	}
}

// TestTraceSamplingCapturesStages runs a journaled controller with
// sample-every-1 tracing and checks the full observability loop: the ring
// retains complete traces, the journal carries KindTrace records, and the
// audit prints the recorded stage timings next to the replayed decision.
func TestTraceSamplingCapturesStages(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		TraceSample: 1, JournalDir: dir, Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 200, 5)
	decisions := decideAll(t, c, tr, 16)

	snap := c.Traces()
	if snap.SampleEvery != 1 {
		t.Fatalf("snapshot sample_every = %d", snap.SampleEvery)
	}
	if len(snap.Traces) == 0 {
		t.Fatal("no traces retained with sampling on")
	}
	for _, tc := range snap.Traces {
		requireCompleteTrace(t, tc)
		if tc.Seq < 0 || tc.Seq >= int64(len(decisions)) {
			t.Fatalf("trace seq %d outside decided range", tc.Seq)
		}
	}
	if got := c.Telemetry().Sampled(); got != uint64(len(decisions)) {
		t.Fatalf("sampled %d decisions, want %d", got, len(decisions))
	}

	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The journal now holds one trace record per decision; verify skips
	// them but counts them, and the audit prints their timings.
	st, err := VerifyShard(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != len(decisions) {
		t.Fatalf("journal holds %d trace records, want %d", st.Traces, len(decisions))
	}
	// The last decision's trace rides the drain's commit.
	for _, seq := range []int64{0, int64(len(decisions) - 1)} {
		var buf bytes.Buffer
		if err := AuditDecision(&buf, dir, 0, seq, false); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "recorded stage timings (offsets from request receipt)") {
			t.Fatalf("audit of seq %d lacks stage timings:\n%s", seq, out)
		}
		for _, stage := range []string{"route", "wait", "calculus", "ack"} {
			if !strings.Contains(out, stage) {
				t.Fatalf("audit timings of seq %d lack stage %q:\n%s", seq, stage, out)
			}
		}
	}
}

// TestSamplingDeterminism pins the observational invariant: tracing every
// decision must not perturb the decision sequence. Two controllers fed
// the identical trace — one sampling everything, one with telemetry off —
// produce identical decisions and identical drain results.
func TestSamplingDeterminism(t *testing.T) {
	tr := testTrace(t, 300, 11)
	base := Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2}
	off, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	sampled := base
	sampled.TraceSample = 1
	on, err := New(sampled)
	if err != nil {
		t.Fatal(err)
	}
	dOff := decideAll(t, off, tr, 8)
	dOn := decideAll(t, on, tr, 8)
	if !reflect.DeepEqual(dOff, dOn) {
		t.Fatal("sampling perturbed the decision sequence")
	}
	rOff, err := off.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := on.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *rOff != *rOn {
		t.Fatalf("sampling perturbed the drain result:\noff %+v\non  %+v", rOff, rOn)
	}
}

// TestConcurrentDecideMetricsTraces hammers /v1/decide, /metrics and
// /debug/traces simultaneously (run under -race) and then holds the final
// scrape to the package's own Prometheus linter.
func TestConcurrentDecideMetricsTraces(t *testing.T) {
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		Shards: 2, TraceSample: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := serveLoopback(t, NewHandler(c))
	defer srv.Close()

	tr := testTrace(t, 240, 13)
	const clients = 4
	per := tr.Len() / clients
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for i := lo; i < lo+per; i += 8 {
				hi := min(i+8, lo+per)
				req := DecideRequest{Tasks: make([]TaskSpec, hi-i)}
				for j, task := range tr.Tasks[i:hi] {
					req.Tasks[j] = TaskSpec{
						Type: int(task.Type), Arrival: task.Arrival,
						Deadline: task.Deadline, ExecByType: task.ExecByType,
					}
				}
				blob, _ := json.Marshal(&req)
				resp, err := http.Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(blob))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/v1/decide: %s", resp.Status)
					return
				}
			}
		}(w * per)
	}
	for _, path := range []string{"/metrics", "/debug/traces", "/metrics", "/debug/traces"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %s", path, resp.Status)
					return
				}
			}
		}(path)
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if issues := telemetry.Lint(bytes.NewReader(exposition)); len(issues) > 0 {
		t.Fatalf("final /metrics scrape fails lint:\n%s", strings.Join(issues, "\n"))
	}

	resp, err = http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SampleEvery != 2 || len(snap.Traces) == 0 {
		t.Fatalf("trace snapshot: every=%d traces=%d", snap.SampleEvery, len(snap.Traces))
	}
	for _, tc := range snap.Traces {
		requireCompleteTrace(t, tc)
	}
}

// TestMetricsChainInvalidationFamilies pins the chain-cache invalidation
// exposition: every reason label is present from the first scrape (zero
// counters included, so rate() works from process start) and the pinned
// gauge exists, before and after traffic.
func TestMetricsChainInvalidationFamilies(t *testing.T) {
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := serveLoopback(t, NewHandler(c))
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if issues := telemetry.Lint(bytes.NewReader(blob)); len(issues) > 0 {
			t.Fatalf("/metrics fails lint:\n%s", strings.Join(issues, "\n"))
		}
		return string(blob)
	}
	want := []string{
		`taskdrop_chain_invalidations_total{reason="event"} `,
		`taskdrop_chain_invalidations_total{reason="churn"} `,
		`taskdrop_chain_invalidations_total{reason="overflow"} `,
		"taskdrop_chain_pinned_bytes ",
		`taskdrop_mapper_candidates_total{outcome="evaluated"} `,
		`taskdrop_mapper_candidates_total{outcome="pruned"} `,
		`taskdrop_dropper_windows_total{outcome="bounded"} `,
		`taskdrop_dropper_windows_total{outcome="evaluated"} `,
	}
	for pass, body := range map[string]string{"cold": scrape()} {
		for _, line := range want {
			if !strings.Contains(body, line) {
				t.Fatalf("%s scrape lacks %q:\n%s", pass, line, body)
			}
		}
	}
	decideAll(t, c, testTrace(t, 120, 3), 8)
	body := scrape()
	for _, line := range want {
		if !strings.Contains(body, line) {
			t.Fatalf("warm scrape lacks %q", line)
		}
	}
	// Traffic drives mapping events through the per-machine caches; the
	// event-reason counter must have moved.
	if strings.Contains(body, `taskdrop_chain_invalidations_total{reason="event"} 0`+"\n") {
		t.Fatal("event invalidations still zero after a full trace")
	}
	if strings.Contains(body, `taskdrop_mapper_candidates_total{outcome="evaluated"} 0`+"\n") {
		t.Fatal("no mapper candidate counted after a full trace")
	}
	if strings.Contains(body, `taskdrop_dropper_windows_total{outcome="bounded"} 0`+"\n") {
		t.Fatal("no dropper window settled by the bound after a full trace")
	}
}

// TestDecideTelemetryDisabledAllocsSteadyState holds the disabled-sampling
// decide path to the same steady-state allocation budget as the
// pre-telemetry controller: with TraceSample 0 the telemetry wiring must
// add zero allocations (no clock reads, no Trace, no span slices). CI's
// alloc-regression job runs this test alongside the controller budget.
func TestDecideTelemetryDisabledAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		TraceSample: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tasks := benchTasks(t, 4096)
	ctx := context.Background()
	i := 0
	decide := func() {
		task := &tasks[i%len(tasks)]
		i++
		req := DecideRequest{Tasks: []TaskSpec{{
			Type: int(task.Type), Arrival: task.Arrival,
			Deadline: task.Deadline, ExecByType: task.ExecByType,
		}}}
		if _, err := c.Decide(ctx, &req); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 64; k++ {
		decide()
	}
	if avg := testing.AllocsPerRun(200, decide); avg > maxControllerDecideAllocs {
		t.Fatalf("disabled-telemetry Decide allocates %.1f/op, budget %d — telemetry wiring leaks onto the cold path", avg, maxControllerDecideAllocs)
	}
}

// TestTracedDecideAllocsSteadyState holds a sampled decision to its trace
// and the request's slot table: a journaled single-task Decide with every
// decision traced allocates at most two more per op than the same Decide
// untraced. The Trace is sealed and published in place, and its journal
// record encodes from spans the shard keeps.
func TestTracedDecideAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	tasks := benchTasks(t, 4096)
	allocs := func(sample int) float64 {
		c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic",
			TraceSample: sample, JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		i := 0
		decide := func() {
			task := &tasks[i%len(tasks)]
			i++
			req := DecideRequest{Tasks: []TaskSpec{{
				Type: int(task.Type), Arrival: task.Arrival,
				Deadline: task.Deadline, ExecByType: task.ExecByType,
			}}}
			if _, err := c.Decide(ctx, &req); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 64; k++ {
			decide()
		}
		return testing.AllocsPerRun(200, decide)
	}
	untraced, traced := allocs(0), allocs(1)
	t.Logf("journaled Decide: %.1f allocs/op untraced, %.1f traced", untraced, traced)
	if traced > untraced+2 {
		t.Fatalf("a traced Decide allocates %.1f/op, %.1f untraced: budget is 2 more (the Trace and the request's slot table)", traced, untraced)
	}
}
