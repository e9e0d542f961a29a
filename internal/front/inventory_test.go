package front

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
	"github.com/hpcclab/taskdrop/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the series-inventory fixtures under testdata/")

// wallClockSeries matches the samples whose values depend on the host's
// clock or runtime rather than on the seeded trace: every *_seconds
// histogram line, the Go runtime series and the throughput gauge.
var wallClockSeries = regexp.MustCompile(`^(taskdrop_go_\w+|taskdrop_decisions_per_second|\w+_seconds_(bucket|sum|count))(\{[^}]*\})? `)

// maskWallClock replaces the value of every wall-clock sample with "*",
// leaving names, label sets, HELP/TYPE lines and all other values as
// scraped.
func maskWallClock(body string) string {
	lines := strings.SplitAfter(body, "\n")
	for i, ln := range lines {
		if loc := wallClockSeries.FindStringIndex(ln); loc != nil {
			lines[i] = ln[:loc[1]] + "*\n"
		}
	}
	return strings.Join(lines, "")
}

// specsOf converts trace tasks [lo, hi) to wire specs.
func specsOf(tr *workload.Trace, lo, hi int) []service.TaskSpec {
	out := make([]service.TaskSpec, 0, hi-lo)
	for _, task := range tr.Tasks[lo:hi] {
		out = append(out, service.TaskSpec{ID: fmt.Sprintf("t%d", task.ID), Type: int(task.Type),
			Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType})
	}
	return out
}

// driveInventoryTrace feeds the fixed request sequence both goldens are
// captured after: the trace in 8-task batches under decision IDs, one
// byte-level retry of the first batch, and one body with an unknown field.
func driveInventoryTrace(t *testing.T, srv *httptest.Server, tr *workload.Trace) {
	t.Helper()
	post := func(body []byte, want int) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("decide: HTTP %d, want %d: %s", resp.StatusCode, want, data)
		}
	}
	var first []byte
	for lo := 0; lo < tr.Len(); lo += 8 {
		hi := min(lo+8, tr.Len())
		body, err := json.Marshal(&service.DecideRequest{DecisionID: fmt.Sprintf("inv-%d", lo/8), Tasks: specsOf(tr, lo, hi)})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = body
		}
		post(body, http.StatusOK)
	}
	post(first, http.StatusOK)
	post([]byte(`{"tasks":[],"bogus":1}`), http.StatusBadRequest)
}

// TestSeriesInventoryGolden pins the whole /metrics body of both tiers —
// family order, HELP, TYPE, label sets and every value that does not
// depend on the wall clock, byte for byte (so a %d that becomes a %g is a
// failure) — after a fixed seeded trace. The fixtures were captured from
// the hand-written emitters the exposition writer replaced.
func TestSeriesInventoryGolden(t *testing.T) {
	scrape := func(t *testing.T, srv *httptest.Server) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if problems := telemetry.Lint(bytes.NewReader(data)); len(problems) > 0 {
			t.Fatalf("/metrics fails lint:\n%s", strings.Join(problems, "\n"))
		}
		return maskWallClock(string(data))
	}
	check := func(t *testing.T, name, got string) {
		t.Helper()
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			return
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}

	t.Run("controller", func(t *testing.T) {
		c, err := service.New(service.Config{
			Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr",
			JournalDir: t.TempDir(), Fsync: "always", SnapshotEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		srv := httptest.NewServer(service.NewHandler(c))
		defer srv.Close()
		driveInventoryTrace(t, srv, testTrace(t, 320, 2))
		check(t, "metrics_controller.golden", scrape(t, srv))
	})

	t.Run("front", func(t *testing.T) {
		f := newFront(t, newBackends(t, 2), func(c *Config) { c.TraceSample = 1 })
		srv := httptest.NewServer(NewHandler(f))
		defer srv.Close()
		driveInventoryTrace(t, srv, testTrace(t, 320, 2))
		check(t, "metrics_front.golden", scrape(t, srv))
	})
}
