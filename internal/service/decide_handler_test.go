package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/taskdrop/internal/front"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// decideTier is one deployment of the shared POST /v1/decide handler.
type decideTier struct {
	srv *httptest.Server
	// prefix leads the handler's own error texts; rejected names the
	// tier's refused-body counter on /metrics.
	prefix, rejected string
	dedup            *service.DedupWindow
	// stall holds every decide submitted next in flight until release.
	stall func() (release func())
}

func newControllerTier(t *testing.T) decideTier {
	c, err := service.New(service.Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 2, Router: "rr"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(service.NewHandler(c))
	t.Cleanup(srv.Close)
	return decideTier{
		srv: srv, prefix: "service", rejected: "taskdrop_rejected_requests_total",
		dedup: service.DedupOf(c),
		stall: func() func() { return service.StallShards(c) },
	}
}

func newFrontTier(t *testing.T) decideTier {
	// Two partition backends whose /v1/decide can be held at a gate.
	var mu sync.Mutex
	var gate chan struct{}
	urls := make([]string, 2)
	for k := range urls {
		c, err := service.New(service.Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Partition: fmt.Sprintf("%d/2", k)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		h := service.NewHandler(c)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/decide" {
				mu.Lock()
				g := gate
				mu.Unlock()
				if g != nil {
					<-g
				}
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[k] = srv.URL
	}
	f, err := front.New(front.Config{Backends: urls, Profile: "video", Poll: 10 * time.Millisecond,
		Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	waitFor(t, "both backends in rotation", func() bool { return f.NumReady() == len(urls) })
	srv := httptest.NewServer(front.NewHandler(f))
	t.Cleanup(srv.Close)
	return decideTier{
		srv: srv, prefix: "front", rejected: "taskdrop_router_rejected_total",
		dedup: f.Dedup(),
		stall: func() func() {
			g := make(chan struct{})
			mu.Lock()
			gate = g
			mu.Unlock()
			return func() {
				mu.Lock()
				gate = nil
				mu.Unlock()
				close(g)
			}
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// post sends one raw decide body and returns the status and response bytes.
func (d decideTier) post(t *testing.T, body []byte) (int, []byte) {
	t.Helper()
	resp, err := d.srv.Client().Post(d.srv.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, data
}

// errorText decodes the JSON error body every failed decide answers with.
func errorText(t *testing.T, data []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q: %v", data, err)
	}
	return e.Error
}

// counter reads one unlabelled sample off the tier's /metrics.
func (d decideTier) counter(t *testing.T, name string) string {
	t.Helper()
	resp, err := d.srv.Client().Get(d.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(ln, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return ""
}

// TestDecideHandlerExactlyOnce runs the exactly-once cases the per-tier
// idempotency tests leave out against both deployments of DecideHandler: a
// Controller's handler and a Front's over two backends.
func TestDecideHandlerExactlyOnce(t *testing.T) {
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack}
	tr := workload.Generate(m, cfg.Scaled(64.0/30000), 17)
	next := 0
	// body encodes the next n trace tasks under a decision ID.
	body := func(id string, n int) []byte {
		req := service.DecideRequest{DecisionID: id}
		for _, task := range tr.Tasks[next : next+n] {
			req.Tasks = append(req.Tasks, service.TaskSpec{Type: int(task.Type), Arrival: task.Arrival,
				Deadline: task.Deadline, ExecByType: task.ExecByType})
		}
		next += n
		data, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	cases := []struct {
		name string
		run  func(t *testing.T, d decideTier)
	}{
		{"count mismatch on a retried ID is 409", func(t *testing.T, d decideTier) {
			if code, data := d.post(t, body("mismatch", 4)); code != http.StatusOK {
				t.Fatalf("first attempt: HTTP %d: %s", code, data)
			}
			code, data := d.post(t, body("mismatch", 2))
			want := d.prefix + `: decision id "mismatch" was acknowledged for 4 tasks, retried with 2`
			if got := errorText(t, data); code != http.StatusConflict || got != want {
				t.Fatalf("mismatched retry: HTTP %d %q, want 409 %q", code, got, want)
			}
		}},
		{"a failed first attempt releases the ID", func(t *testing.T, d decideTier) {
			bad := []byte(`{"decision_id":"released","tasks":[{"type":9999,"arrival":1,"deadline":2}]}`)
			if code, data := d.post(t, bad); code != http.StatusBadRequest {
				t.Fatalf("invalid first attempt: HTTP %d: %s", code, data)
			}
			hits := d.dedup.Hits()
			retry := body("released", 4)
			code, first := d.post(t, retry)
			var out service.DecideResponse
			if err := json.Unmarshal(first, &out); code != http.StatusOK || err != nil || len(out.Decisions) != 4 {
				t.Fatalf("retry after failure: HTTP %d, %d decisions (%v): %s", code, len(out.Decisions), err, first)
			}
			if d.dedup.Hits() != hits {
				t.Fatal("retry after failure was served from the window, not re-executed")
			}
			if code, again := d.post(t, retry); code != http.StatusOK || !bytes.Equal(again, first) {
				t.Fatalf("duplicate of the re-executed retry: HTTP %d, identical=%v", code, bytes.Equal(again, first))
			}
		}},
		{"a duplicate of an in-flight request blocks, then replays its bytes", func(t *testing.T, d decideTier) {
			type reply struct {
				code int
				data []byte
			}
			req := body("inflight", 4)
			send := func() <-chan reply {
				ch := make(chan reply, 1) // one send; the receiver may have failed the test already
				go func() {
					code, data := d.post(t, req)
					ch <- reply{code, data}
				}()
				return ch
			}
			entries, hits := d.dedup.Len(), d.dedup.Hits()
			release := sync.OnceFunc(d.stall())
			defer release() // a failed assertion must not leave the tier stalled for its cleanup
			first := send()
			waitFor(t, "the first attempt to own the ID", func() bool { return d.dedup.Len() == entries+1 })
			dup := send()
			waitFor(t, "the duplicate to find the ID claimed", func() bool { return d.dedup.Hits() == hits+1 })
			select {
			case r := <-first:
				t.Fatalf("stalled first attempt answered: HTTP %d", r.code)
			case r := <-dup:
				t.Fatalf("duplicate answered while the first attempt was in flight: HTTP %d: %s", r.code, r.data)
			default:
			}
			release()
			a, b := <-first, <-dup
			if a.code != http.StatusOK || b.code != http.StatusOK || !bytes.Equal(a.data, b.data) {
				t.Fatalf("first HTTP %d, duplicate HTTP %d, identical=%v:\n%s\n%s", a.code, b.code, bytes.Equal(a.data, b.data), a.data, b.data)
			}
		}},
		{"an unknown field is 400 and counted as rejected", func(t *testing.T, d decideTier) {
			before := d.counter(t, d.rejected)
			code, data := d.post(t, []byte(`{"tasks":[],"priority":3}`))
			if got := errorText(t, data); code != http.StatusBadRequest || !strings.HasPrefix(got, d.prefix+": bad decide body: ") {
				t.Fatalf("unknown field: HTTP %d %q", code, got)
			}
			if after := d.counter(t, d.rejected); after == before {
				t.Fatalf("%s stayed at %s", d.rejected, before)
			}
		}},
	}
	for _, tier := range []struct {
		name string
		make func(*testing.T) decideTier
	}{{"controller", newControllerTier}, {"front", newFrontTier}} {
		t.Run(tier.name, func(t *testing.T) {
			d := tier.make(t)
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) { tc.run(t, d) })
			}
		})
	}
}
