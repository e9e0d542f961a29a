package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// testTrace builds a small deterministic trace over the video matrix.
func testTrace(t testing.TB, tasks int, seed int64) *workload.Trace {
	t.Helper()
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack}
	return workload.Generate(m, cfg.Scaled(float64(tasks)/30000), seed)
}

// newBackends starts n partitioned shard servers over the video matrix.
func newBackends(t testing.TB, n int) []string {
	t.Helper()
	urls, _ := newBackendControllers(t, n)
	return urls
}

// newBackendControllers is newBackends that also hands back the
// controllers behind the URLs.
func newBackendControllers(t testing.TB, n int) ([]string, []*service.Controller) {
	t.Helper()
	urls := make([]string, n)
	ctrls := make([]*service.Controller, n)
	for k := 0; k < n; k++ {
		c, err := service.New(service.Config{
			Profile: "video", Mapper: "PAM", Dropper: "heuristic",
			Partition: fmt.Sprintf("%d/%d", k, n),
		})
		if err != nil {
			t.Fatal(err)
		}
		urls[k], ctrls[k] = serve(t, service.NewHandler(c)), c
	}
	return urls, ctrls
}

// serve serves h on a service.Server, as hcserve and hcrouter serve their
// listeners, over a loopback port until the test ends; it returns the base
// URL.
func serve(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(h)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-served
	})
	return "http://" + ln.Addr().String()
}

// newFront builds a Front over the backends and waits for full rotation.
func newFront(t testing.TB, urls []string, mutate func(*Config)) *Front {
	t.Helper()
	cfg := Config{
		Backends: urls,
		Profile:  "video",
		Poll:     10 * time.Millisecond,
		Timeout:  2 * time.Second,
		Backoff:  time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	deadline := time.Now().Add(5 * time.Second)
	for f.NumReady() < len(urls) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d backends entered rotation", f.NumReady(), len(urls))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return f
}

func TestFrontReplayAcrossPartitions(t *testing.T) {
	tr := testTrace(t, 400, 5)
	urls := newBackends(t, 2)
	f := newFront(t, urls, nil)
	base := serve(t, NewHandler(f))

	rep, err := service.Replay(context.Background(), base, tr, service.ReplayConfig{
		BatchSize: 16, Drain: true, Retries: 2, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != tr.Len() || len(rep.Decisions) != tr.Len() {
		t.Fatalf("replay covered %d/%d decisions", len(rep.Decisions), tr.Len())
	}
	if rep.DuplicateAcks != 0 {
		t.Fatalf("%d duplicate acks through the router", rep.DuplicateAcks)
	}
	if rep.Final == nil {
		t.Fatal("no fleet drain result")
	}
	if err := rep.Final.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Final.Total != tr.Len() {
		t.Fatalf("fleet Result.Total = %d, want %d", rep.Final.Total, tr.Len())
	}
	// Both backends must have decided work, and every decision must carry
	// its backend.
	seen := map[int]int{}
	for _, d := range rep.Decisions {
		seen[d.Backend]++
	}
	if len(seen) != 2 {
		t.Fatalf("decisions came from backends %v, want both", seen)
	}
}

// TestFrontRoutesByClassOnly: the router tier refuses every policy but
// the class hash, naming the rule.
func TestFrontRoutesByClassOnly(t *testing.T) {
	urls := newBackends(t, 1)
	for _, spec := range []string{"rr", "p2c", "p2c:seed=3"} {
		_, err := New(Config{Backends: urls, Profile: "video", Router: spec})
		if err == nil || !strings.Contains(err.Error(), "the router tier partitions by task class: hash[:seed=N]") {
			t.Errorf("Router %q: err = %v, want the class-hash rule", spec, err)
		}
	}
	for _, spec := range []string{"", "hash", "hash:seed=3"} {
		f, err := New(Config{Backends: urls, Profile: "video", Router: spec})
		if err != nil {
			t.Fatalf("Router %q: %v", spec, err)
		}
		f.Close()
	}
}

// decideTasks decides trace tasks [lo, hi) through f and returns the
// decisions in request order.
func decideTasks(t testing.TB, f *Front, tr *workload.Trace, lo, hi int) []service.Decision {
	t.Helper()
	resp, err := f.Decide(context.Background(), &service.DecideRequest{Tasks: specsOf(tr, lo, hi)})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Decisions
}

// TestClassHomesSurviveAnotherBackendLeaving: a class's home is the hash
// over the whole fleet, so a backend leaving the rotation moves its own
// classes and no other — routing over the backends still in rotation
// re-dealt every class.
func TestClassHomesSurviveAnotherBackendLeaving(t *testing.T) {
	tr := testTrace(t, 240, 6)
	f := newFront(t, newBackends(t, 3), nil)
	// Freeze the rotation and take backend 2 out, as a failed proxy does.
	f.stopOnce.Do(func() { close(f.stop) })
	f.pollWG.Wait()
	f.markDown(f.backends[2], errors.New("taken out"))

	up := []*router.ShardView{router.NewShardView(0), router.NewShardView(0), router.NewShardView(0)}
	home := func(class int) int { return router.NewClassHash(1).Route(router.Task{Class: class}, up) }
	stayed := 0
	for lo := 0; lo < tr.Len(); lo += 8 {
		for i, d := range decideTasks(t, f, tr, lo, min(lo+8, tr.Len())) {
			h := home(int(tr.Tasks[lo+i].Type))
			if h == 2 {
				continue
			}
			if d.Backend != h {
				t.Fatalf("task %d of class %d went to backend %d while its home %d is up", lo+i, tr.Tasks[lo+i].Type, d.Backend, h)
			}
			stayed++
		}
	}
	if stayed == 0 {
		t.Fatal("vacuous: no task is homed on backend 0 or 1")
	}
}

// memberAll applies op ("remove" or "revive") to every machine the backend
// at url, whose controller is c, owns.
func memberAll(t testing.TB, url string, c *service.Controller, op string) {
	t.Helper()
	ctx := context.Background()
	shards, err := c.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cl := service.NewClient(nil, service.ClientConfig{Timeout: 5 * time.Second})
	for _, sh := range shards {
		for _, g := range sh.Machines {
			if err := cl.PostJSON(ctx, url+"/v1/admin/machines", &service.AdminMachineRequest{Op: op, Machine: g}, nil); err != nil {
				t.Fatalf("%s machine %d: %v", op, g, err)
			}
		}
	}
}

// waitUntil polls cond for up to 5 s and fails the test naming what never
// happened.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestFrontSteersAroundDegradedBackend: a backend whose every machine is
// removed answers /readyz 503 and leaves the rotation, and its classes go
// to the other backend; after the revive it rejoins and they come home.
// Routing is the class hash over the whole fleet in all three phases.
func TestFrontSteersAroundDegradedBackend(t *testing.T) {
	tr := testTrace(t, 240, 8)
	urls, ctrls := newBackendControllers(t, 2)
	f := newFront(t, urls, nil)
	base := serve(t, NewHandler(f))
	cl := service.NewClient(nil, service.ClientConfig{Timeout: 5 * time.Second})

	up := []*router.ShardView{router.NewShardView(0), router.NewShardView(0)}
	home := func(class int) int { return router.NewClassHash(1).Route(router.Task{Class: class}, up) }
	// phase decides tasks [lo, hi) and requires each on backend to(class).
	phase := func(lo, hi int, to func(class int) int) (onZero int) {
		t.Helper()
		for i, d := range decideTasks(t, f, tr, lo, hi) {
			class := int(tr.Tasks[lo+i].Type)
			if want := to(class); d.Backend != want {
				t.Fatalf("task %d of class %d went to backend %d, want %d", lo+i, class, d.Backend, want)
			}
			if d.Backend == 0 {
				onZero++
			}
		}
		return onZero
	}
	// inRotation waits until the router's /v1/stats shows backend 0's
	// rotation membership as want, and backend 1 in rotation throughout.
	inRotation := func(want bool) {
		t.Helper()
		waitUntil(t, fmt.Sprintf("backend 0 ready=%v", want), func() bool {
			var st StatsResponse
			if err := cl.GetJSON(context.Background(), base+"/v1/stats", &st); err != nil {
				t.Fatal(err)
			}
			if !st.Backends[1].Ready {
				t.Fatalf("backend 1 left the rotation: %+v", st.Backends[1])
			}
			return st.Backends[0].Ready == want
		})
	}

	if phase(0, 80, home) == 0 {
		t.Fatal("vacuous: no task is homed on backend 0")
	}
	memberAll(t, urls[0], ctrls[0], "remove")
	inRotation(false)
	phase(80, 160, func(int) int { return 1 })
	memberAll(t, urls[0], ctrls[0], "revive")
	inRotation(true)
	if phase(160, 240, home) == 0 {
		t.Fatal("vacuous: no class homed on backend 0 came back to it")
	}
}

// TestFrontAllDegradedAnswers503: a fleet whose every backend is degraded
// has none in rotation, so a decide answers 503 at once without an
// upstream attempt (in place of a 429 from each backend and a 502).
func TestFrontAllDegradedAnswers503(t *testing.T) {
	tr := testTrace(t, 20, 2)
	urls, ctrls := newBackendControllers(t, 2)
	f := newFront(t, urls, func(c *Config) { c.Retries = -1 })
	base := serve(t, NewHandler(f))
	for k := range urls {
		memberAll(t, urls[k], ctrls[k], "remove")
	}
	waitUntil(t, "both backends are down", func() bool { return f.backends[0].view.Down() && f.backends[1].view.Down() })

	attempts := func() string {
		t.Helper()
		resp, err := http.DefaultClient.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(ln, "taskdrop_router_upstream_attempts_total "); ok {
				return v
			}
		}
		t.Fatal("no taskdrop_router_upstream_attempts_total sample")
		return ""
	}
	before := attempts()
	code, body := postBody(t, base, decideBody(t, tr, "", 0, 4))
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "no ready backends") {
		t.Fatalf("decide over an all-degraded fleet: HTTP %d %s, want 503 no ready backends", code, body)
	}
	if after := attempts(); after != before {
		t.Fatalf("upstream attempts moved %s -> %s over a fleet with none in rotation", before, after)
	}
}

// TestPollerAsksReadyzOnly: a backend's health is one probe. The poller
// sends one GET /readyz per poll, reads /healthz once when the backend
// joins the rotation, and never reads /v1/stats.
func TestPollerAsksReadyzOnly(t *testing.T) {
	urls, _ := newBackendControllers(t, 1)
	var mu sync.Mutex
	seen := map[string]int{}
	proxy := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path]++
		mu.Unlock()
		resp, err := http.Get(urls[0] + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	f := newFront(t, []string{proxy}, func(c *Config) { c.Poll = time.Millisecond })
	count := func(path string) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[path]
	}
	waitUntil(t, "20 polls", func() bool { return count("/readyz") >= 20 })
	f.Close()
	mu.Lock()
	defer mu.Unlock()
	if seen["/v1/stats"] != 0 || seen["/healthz"] != 1 || len(seen) != 2 {
		t.Fatalf("the poller's requests by path: %v, want /readyz and one /healthz", seen)
	}
}

// TestFrontKeepsOtherProfilesOut: a backend joins the rotation only when
// the profile its /healthz names resolves to the router's system. An alias
// joins; another profile, or another seed of the same one, stays out, and
// its last error names both profiles.
func TestFrontKeepsOtherProfilesOut(t *testing.T) {
	for _, tc := range []struct {
		router, backend string
		joins           bool
	}{
		{"video", "transcoding", true},
		{"spec", "spec:seed=42", true},
		{"video", "spec", false},
		{"spec", "spec:seed=7", false},
	} {
		c, err := service.New(service.Config{Profile: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(Config{Backends: []string{serve(t, service.NewHandler(c))}, Profile: tc.router, Poll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		b := f.backends[0]
		waitUntil(t, "the first polls", func() bool { return b.polled.Load() && (b.ready() || b.lastError() != "") })
		st := f.Stats().Backends[0]
		f.Close()
		if st.Ready != tc.joins {
			t.Errorf("router %q over backend %q: ready=%v, want %v (%s)", tc.router, tc.backend, st.Ready, tc.joins, st.LastError)
		}
		if !tc.joins && (!strings.Contains(st.LastError, fmt.Sprintf("%q", tc.router)) || !strings.Contains(st.LastError, fmt.Sprintf("%q", tc.backend))) {
			t.Errorf("router %q over backend %q: last error %q, want both profiles named", tc.router, tc.backend, st.LastError)
		}
	}
}

// TestRerouteSkipsDegradedBackend: a sub-batch rerouted off a failed
// backend goes to a backend in rotation, never to a degraded one, which
// could only shed it.
func TestRerouteSkipsDegradedBackend(t *testing.T) {
	tr := testTrace(t, 120, 11)
	urls, ctrls := newBackendControllers(t, 3)
	f := newFront(t, urls, func(c *Config) { c.Retries = -1 })
	memberAll(t, urls[1], ctrls[1], "remove")
	waitUntil(t, "backend 1 is down", func() bool { return f.backends[1].view.Down() })
	// Freeze the rotation, then let backend 0 die in it, as in
	// TestFrontReroutesOffDeadBackend: the decide path finds out.
	f.stopOnce.Do(func() { close(f.stop) })
	f.pollWG.Wait()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	f.backends[0].url = dead.URL

	for lo := 0; lo < tr.Len(); lo += 8 {
		for i, d := range decideTasks(t, f, tr, lo, lo+8) {
			if d.Backend != 2 {
				t.Fatalf("task %d went to backend %d, want 2, the one backend in rotation", lo+i, d.Backend)
			}
		}
	}
	if f.metrics.reroutes.Load() == 0 {
		t.Fatal("vacuous: no sub-batch was rerouted off the dead backend")
	}
}

func TestFrontDeterministicAcrossRestarts(t *testing.T) {
	// Same trace, same backends-per-partition, same routing policy: the
	// decision sequence is reproducible (the hash router is stateless and
	// the backends are deterministic engines).
	run := func() []service.Decision {
		tr := testTrace(t, 200, 9)
		urls := newBackends(t, 2)
		f := newFront(t, urls, nil)
		base := serve(t, NewHandler(f))
		rep, err := service.Replay(context.Background(), base, tr, service.ReplayConfig{BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Decisions
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decision sequences diverged across identical fleets")
	}
}

// decideBody encodes trace tasks [lo, hi) as a decide request under id.
func decideBody(t testing.TB, tr *workload.Trace, id string, lo, hi int) []byte {
	t.Helper()
	req := service.DecideRequest{DecisionID: id}
	for _, task := range tr.Tasks[lo:hi] {
		req.Tasks = append(req.Tasks, service.TaskSpec{ID: fmt.Sprintf("t%d", task.ID), Type: int(task.Type),
			Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType})
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postBody POSTs a decide body to the server at base and returns the
// status and reply.
func postBody(t testing.TB, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Post(base+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRetryThroughRestartedRouter: a client's retry through a restarted
// router, which has lost its own dedup window, splits the same way under
// hash routing and so reaches every backend under the sub-IDs of the
// original — byte-identical reply, nothing admitted twice.
func TestRetryThroughRestartedRouter(t *testing.T) {
	tr := testTrace(t, 40, 3)
	urls, ctrls := newBackendControllers(t, 2)
	requests := func() (n int64) {
		for _, c := range ctrls {
			shards, err := c.ShardStats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range shards {
				n += sh.Requests
			}
		}
		return n
	}
	body := decideBody(t, tr, "client-retry-1", 0, 16)
	// Built the way hcrouter builds a router, once per process.
	decide := func() []byte {
		f := newFront(t, urls, nil)
		defer f.Close()
		base := serve(t, NewHandler(f))
		code, data := postBody(t, base, body)
		if code != http.StatusOK {
			t.Fatalf("decide: HTTP %d: %s", code, data)
		}
		return data
	}

	first := decide()
	var out service.DecideResponse
	if err := json.Unmarshal(first, &out); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, d := range out.Decisions {
		seen[d.Backend] = true
	}
	if len(seen) != 2 {
		t.Fatalf("vacuous: the batch went to backends %v, want both", seen)
	}
	fed := requests()
	again := decide()
	if !bytes.Equal(first, again) {
		t.Fatalf("retry through a restarted router not byte-identical:\nfirst %s\nagain %s", first, again)
	}
	if got := requests(); got != fed {
		t.Fatalf("the retry fed the backends again: %d sub-batches, want %d", got, fed)
	}
}

// TestBackendViewConcurrentWriters: a backend's view is written by its
// poller and by markDown, and read lock-free by routing and Stats. Run
// under -race.
func TestBackendViewConcurrentWriters(t *testing.T) {
	tr := testTrace(t, 320, 4)
	urls := newBackends(t, 2)
	f := newFront(t, urls, func(c *Config) { c.Poll = time.Millisecond })
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * 80; lo < (w+1)*80; lo += 8 {
				req := service.DecideRequest{Tasks: make([]service.TaskSpec, 8)}
				for i, task := range tr.Tasks[lo : lo+8] {
					req.Tasks[i] = service.TaskSpec{Type: int(task.Type), Arrival: task.Arrival,
						Deadline: task.Deadline, ExecByType: task.ExecByType}
				}
				if _, err := f.Decide(context.Background(), &req); err != nil {
					t.Error(err)
					return
				}
				_ = f.Stats()
				if w == 0 {
					f.markDown(f.backends[0], errors.New("flap")) // the poller brings it back
				}
			}
		}()
	}
	wg.Wait()
}

func TestFrontIdempotentDuplicateBytes(t *testing.T) {
	tr := testTrace(t, 40, 3)
	urls := newBackends(t, 2)
	f := newFront(t, urls, nil)
	base := serve(t, NewHandler(f))

	body := decideBody(t, tr, "client-idem-1", 0, 8)
	code, first := postBody(t, base, body)
	if code != http.StatusOK {
		t.Fatalf("decide: HTTP %d: %s", code, first)
	}
	code, again := postBody(t, base, body)
	if code != http.StatusOK {
		t.Fatalf("duplicate decide: HTTP %d", code)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("duplicate not byte-identical:\nfirst %s\nagain %s", first, again)
	}
	if f.Dedup().Hits() != 1 {
		t.Fatalf("dedup hits = %d, want 1", f.Dedup().Hits())
	}
}

func TestFrontShedsOnFullWindow(t *testing.T) {
	tr := testTrace(t, 20, 1)
	urls := newBackends(t, 2)
	f := newFront(t, urls, func(c *Config) { c.Window = 1 })
	base := serve(t, NewHandler(f))

	// Exhaust every backend's single window slot, then decide: whichever
	// backend the batch routes to is saturated → 429 + Retry-After.
	for _, b := range f.backends {
		if !b.tryAcquire() {
			t.Fatal("fresh backend window already full")
		}
	}
	defer func() {
		for _, b := range f.backends {
			b.release()
		}
	}()
	req := service.DecideRequest{Tasks: []service.TaskSpec{{
		Type: int(tr.Tasks[0].Type), Arrival: tr.Tasks[0].Arrival,
		Deadline: tr.Tasks[0].Deadline, ExecByType: tr.Tasks[0].ExecByType,
	}}}
	body, _ := json.Marshal(&req)
	resp, err := http.DefaultClient.Post(base+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated decide: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if f.metrics.shed.Load() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

func TestFrontReroutesOffDeadBackend(t *testing.T) {
	tr := testTrace(t, 60, 7)
	urls := newBackends(t, 2)

	// Stand a killable proxy in front of backend 0 so "kill -9" is a
	// connection refused, while backend 1 survives.
	died := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusBadGateway)
	}))
	died.Close() // closed immediately: every dial fails

	// Negative = no retries (zero would mean the default 2).
	f := newFront(t, []string{urls[0], urls[1]}, func(c *Config) { c.Retries = -1 })

	// Freeze the rotation state (stop the pollers), then swap backend 0's
	// URL for the dead address, as if the process died after joining the
	// rotation but before the next poll — the decide path itself must
	// detect the failure and reroute.
	f.stopOnce.Do(func() { close(f.stop) })
	f.pollWG.Wait()
	f.backends[0].url = died.URL

	decided := 0
	for lo := 0; lo < 32; lo += 8 {
		req := service.DecideRequest{Tasks: make([]service.TaskSpec, 8)}
		for i, task := range tr.Tasks[lo : lo+8] {
			req.Tasks[i] = service.TaskSpec{Type: int(task.Type), Arrival: task.Arrival,
				Deadline: task.Deadline, ExecByType: task.ExecByType}
		}
		resp, err := f.Decide(context.Background(), &req)
		if err != nil {
			t.Fatalf("decide with one dead backend: %v", err)
		}
		for _, d := range resp.Decisions {
			if d.Backend != 1 {
				t.Fatalf("decision routed to dead backend %d", d.Backend)
			}
			decided++
		}
	}
	if decided != 32 {
		t.Fatalf("decided %d/32 tasks", decided)
	}
	if f.backends[0].ready() {
		t.Fatal("dead backend still in rotation")
	}
	if f.metrics.reroutes.Load() == 0 {
		t.Fatal("reroutes counter not incremented")
	}
	// With no retry budget every sub-request is one HTTP attempt, the ones
	// sent to the dead backend included.
	dead, live := f.backends[0].proxied.Load(), f.backends[1].proxied.Load()
	if dead == 0 || f.client.Attempts() != dead+live {
		t.Fatalf("%d attempts for %d sub-requests (%d to the dead backend), want one each", f.client.Attempts(), dead+live, dead)
	}
}

func TestFrontMetricsPassLint(t *testing.T) {
	tr := testTrace(t, 40, 2)
	urls := newBackends(t, 2)
	f := newFront(t, urls, func(c *Config) { c.TraceSample = 1 })
	base := serve(t, NewHandler(f))

	rep, err := service.Replay(context.Background(), base, tr, service.ReplayConfig{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != tr.Len() {
		t.Fatalf("replayed %d/%d", rep.Tasks, tr.Len())
	}
	resp, err := http.DefaultClient.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if problems := telemetry.Lint(bytes.NewReader(data)); len(problems) > 0 {
		t.Fatalf("router /metrics fails lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		"taskdrop_router_requests_total",
		"taskdrop_router_backend_up{backend=\"0\"} 1",
		"taskdrop_router_backend_up{backend=\"1\"} 1",
		"taskdrop_router_decisions_total{action=",
		"taskdrop_router_upstream_latency_seconds_bucket",
		"taskdrop_router_dedup_hits_total",
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

func TestFrontWireTagsAreSnakeCase(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(BackendStatus{}),
		reflect.TypeOf(StatsResponse{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "" {
				t.Errorf("%s.%s has no json tag", typ.Name(), f.Name)
				continue
			}
			if tag != strings.ToLower(tag) || strings.Contains(tag, "-") {
				t.Errorf("%s.%s json tag %q is not snake_case", typ.Name(), f.Name, tag)
			}
		}
	}
}

// TestFrontReadyWaitsForEveryBackend pins the router's readiness rule: one
// backend in rotation is not enough while another has yet to answer its
// first poll — routing over a partial fleet decides differently from
// routing over all of it.
func TestFrontReadyWaitsForEveryBackend(t *testing.T) {
	urls := newBackends(t, 2)
	// The second backend's /readyz hangs until released.
	release := make(chan struct{})
	slow := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		service.WriteJSON(w, http.StatusServiceUnavailable, &service.ReadyResponse{Status: "booting"})
	}))

	f, err := New(Config{
		Backends: []string{urls[0], slow}, Profile: "video",
		Poll: 10 * time.Millisecond, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer close(release) // before f.Close: it waits out the in-flight poll
	base := serve(t, NewHandler(f))
	readyz := func() int {
		resp, err := http.DefaultClient.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	deadline := time.Now().Add(5 * time.Second)
	for f.NumReady() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the healthy backend never entered rotation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with one backend still unpolled, want 503", code)
	}
	// Its first poll finishes — as a failure — and the router goes ready on
	// the backend it has.
	release <- struct{}{}
	for readyz() != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never turned 200 after every backend was polled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrontBackendURLTrailingSlash: New trims one trailing "/" from a
// backend URL, so the router's polls and decides reach the backend's own
// paths — untrimmed, a poll followed the backend's redirect into the
// rotation while every decide answered 502 — and refuses any other path, a
// query or a scheme but http, naming the URL.
func TestFrontBackendURLTrailingSlash(t *testing.T) {
	urls := newBackends(t, 2)
	f := newFront(t, []string{urls[0] + "/", urls[1] + "/"}, nil)
	if got := decideTasks(t, f, testTrace(t, 160, 5), 0, 16); len(got) != 16 {
		t.Fatalf("%d decisions for 16 tasks", len(got))
	}
	for _, bad := range []string{
		urls[0] + "//", urls[0] + "/v1", urls[0] + "?x=1",
		"https" + strings.TrimPrefix(urls[0], "http"), strings.TrimPrefix(urls[0], "http://"),
	} {
		f, err := New(Config{Backends: []string{bad}, Profile: "video"})
		if err == nil {
			f.Close()
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("backend %q: err = %v, want it refused by name", bad, err)
		}
	}
}
