package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/sim"
)

func newTestServer(t testing.TB) (*Controller, *httptest.Server) {
	t.Helper()
	c := newTestController(t)
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)
	return c, srv
}

// TestEndToEndReplay is the acceptance test of the serving layer: a
// replayed workload trace sustained over HTTP, graceful drain, a final
// Result identical to the offline simulator, and an identical decision
// sequence on a second replay of the same (spec, trace, seed).
func TestEndToEndReplay(t *testing.T) {
	tr := testTrace(t, 600, 7)
	ctx := context.Background()

	_, srv1 := newTestServer(t)
	rep1, err := Replay(ctx, srv1.URL, tr, ReplayConfig{BatchSize: 32, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Tasks != tr.Len() || len(rep1.Decisions) != tr.Len() {
		t.Fatalf("replay covered %d/%d decisions", len(rep1.Decisions), tr.Len())
	}
	if rep1.Final == nil {
		t.Fatal("no drain result")
	}
	if err := rep1.Final.Validate(); err != nil {
		t.Fatal(err)
	}

	// Online == offline.
	m, _ := pet.CachedMatrix("video")
	mapper, err := mapping.FromSpec("PAM")
	if err != nil {
		t.Fatal(err)
	}
	dropper, err := core.PolicyFromSpec("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	want := sim.New(m, tr, mapper, dropper, sim.Config{QueueCap: 6}).Run()
	if *rep1.Final != *want {
		t.Fatalf("online drain Result = %+v\nwant (offline)       %+v", rep1.Final, want)
	}
	if rep1.Robustness() != want.RobustnessPct {
		t.Fatalf("robustness %v != %v", rep1.Robustness(), want.RobustnessPct)
	}

	// Determinism holds online: a fresh server replaying the same trace
	// yields the identical decision sequence.
	_, srv2 := newTestServer(t)
	rep2, err := Replay(ctx, srv2.URL, tr, ReplayConfig{BatchSize: 32, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep1.Decisions, rep2.Decisions) {
		t.Fatal("decision sequences diverged across identical replays")
	}
	if *rep1.Final != *rep2.Final {
		t.Fatal("final results diverged across identical replays")
	}
	if rep1.LatencyP50 < 0 || rep1.LatencyP99 < rep1.LatencyP50 {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", rep1.LatencyP50, rep1.LatencyP99)
	}
}

// TestHealthzAndMetrics checks the observability surface before and after
// drain.
func TestHealthzAndMetrics(t *testing.T) {
	tr := testTrace(t, 80, 2)
	c, srv := newTestServer(t)
	ctx := context.Background()

	var st StatusResponse
	getJSON(t, srv, "/healthz", &st)
	if st.Status != "ok" || st.Profile != "video" || st.Machines != len(c.matrix.Machines()) {
		t.Fatalf("healthz = %+v", st)
	}

	if _, err := Replay(ctx, srv.URL, tr, ReplayConfig{BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	body := getText(t, srv, "/metrics")
	for _, want := range []string{
		"taskdrop_decide_requests_total 10",
		`taskdrop_decisions_total{action="map"}`,
		"taskdrop_decision_latency_seconds_bucket",
		"taskdrop_decisions_per_second",
		`taskdrop_queue_depth{machine="0"`,
		`taskdrop_tasks{state="running"}`,
		"taskdrop_virtual_clock_ticks",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain over HTTP, then the surface reports draining + final gauge.
	resp, err := srv.Client().Post(srv.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dr DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if dr.Result == nil || dr.Result.Total != tr.Len() {
		t.Fatalf("drain result = %+v", dr.Result)
	}
	getJSON(t, srv, "/healthz", &st)
	if st.Status != "draining" {
		t.Fatalf("healthz after drain = %+v", st)
	}
	body = getText(t, srv, "/metrics")
	if !strings.Contains(body, "taskdrop_final_robustness_pct") {
		t.Error("metrics after drain missing final robustness gauge")
	}

	// Decide after drain: 503.
	dresp, err := srv.Client().Post(srv.URL+"/v1/decide", "application/json",
		strings.NewReader(`{"tasks":[{"type":0,"arrival":1,"deadline":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("decide after drain: HTTP %d, want 503", dresp.StatusCode)
	}
}

// TestDecideHTTPValidation: malformed bodies and unknown fields are 400s.
func TestDecideHTTPValidation(t *testing.T) {
	c, srv := newTestServer(t)
	defer c.Close()
	for _, body := range []string{
		"",
		"{",
		`{"tasks":[]}`,
		`{"tasks":[{"type":0,"arrival":1,"deadline":2}],"bogus":1}`,
		`{"tasks":[{"type":-3,"arrival":1,"deadline":2}]}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/decide", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if got := getText(t, srv, "/metrics"); !strings.Contains(got, "taskdrop_rejected_requests_total") {
		t.Error("rejected counter missing")
	}
}

// TestDecideBodyOverBound: a body past maxDecideBody answers as the
// streaming decoder that read it before did — a first value complete
// within the bound is decided and the rest never read, one cut off by the
// bound is refused with the read error.
func TestDecideBodyOverBound(t *testing.T) {
	c := newTestController(t)
	defer c.Close()
	h := NewHandler(c)
	pad := strings.Repeat(" ", maxDecideBody)
	for _, tc := range []struct {
		body string
		code int
		text string
	}{
		{`{"tasks":[{"type":0,"arrival":1,"deadline":2}]}` + pad, http.StatusOK, `"decisions"`},
		{`{"tasks":[` + pad + `{"type":0,"arrival":1,"deadline":2}]}`, http.StatusBadRequest, "request body too large"},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(tc.body)))
		if w.Code != tc.code || !strings.Contains(w.Body.String(), tc.text) {
			t.Errorf("%d-byte body: HTTP %d %s, want %d with %q", len(tc.body), w.Code, w.Body, tc.code, tc.text)
		}
	}
}

func getJSON(t testing.TB, srv *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func getText(t testing.TB, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
