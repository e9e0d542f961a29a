package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/sim"
)

func newShardedController(t testing.TB, shards int, routerSpec string) *Controller {
	t.Helper()
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: shards, Router: routerSpec})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedControllerConserves: a 4-shard controller decides a full
// trace, every decision carries a valid shard and matrix-wide machine,
// request order is preserved, and the merged drain Result conserves every
// task.
func TestShardedControllerConserves(t *testing.T) {
	tr := testTrace(t, 500, 3)
	for _, routerSpec := range []string{"rr", "p2c:seed=4"} {
		c := newShardedController(t, 4, routerSpec)
		decisions := decideAll(t, c, tr, 16)
		if len(decisions) != tr.Len() {
			t.Fatalf("%s: got %d decisions, want %d", routerSpec, len(decisions), tr.Len())
		}
		nm := len(c.matrix.Machines())
		shardsSeen := map[int]int{}
		for i, d := range decisions {
			if d.Seq != i {
				t.Fatalf("%s: decision %d has seq %d; request order broken", routerSpec, i, d.Seq)
			}
			if d.Shard < 0 || d.Shard >= 4 {
				t.Fatalf("%s: decision %d routed to shard %d", routerSpec, i, d.Shard)
			}
			shardsSeen[d.Shard]++
			if d.Action == ActionMap {
				if d.Machine < 0 || d.Machine >= nm || d.MachineName == "" {
					t.Fatalf("%s: mapped decision without matrix-wide machine: %+v", routerSpec, d)
				}
				// The machine must belong to the decision's shard under the
				// round-robin partition (machine i lives on shard i mod 4).
				if d.Machine%4 != d.Shard {
					t.Fatalf("%s: decision %+v maps outside its shard", routerSpec, d)
				}
			}
		}
		if len(shardsSeen) != 4 {
			t.Fatalf("%s: only %d of 4 shards used: %v", routerSpec, len(shardsSeen), shardsSeen)
		}
		res, err := c.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != tr.Len() {
			t.Fatalf("%s: drain total %d, want %d", routerSpec, res.Total, tr.Len())
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("%s: %v", routerSpec, err)
		}
	}
}

// TestShardedControllerDeterminism: two 4-shard controllers fed the
// identical sequential request sequence produce the identical decision
// sequence (routing included) and merged final Result.
func TestShardedControllerDeterminism(t *testing.T) {
	tr := testTrace(t, 400, 9)
	a := newShardedController(t, 4, "p2c:seed=7")
	b := newShardedController(t, 4, "p2c:seed=7")
	da := decideAll(t, a, tr, 8)
	db := decideAll(t, b, tr, 8)
	if !reflect.DeepEqual(da, db) {
		t.Fatal("decision sequences diverged for identical (spec, trace, seed)")
	}
	ra, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *ra != *rb {
		t.Fatalf("drain results diverged: %+v vs %+v", ra, rb)
	}
}

// TestShardedControllerMatchesOfflineCluster closes the loop for the
// sharded architecture exactly as the unsharded service does against the
// unsharded engine: the online sharded controller must land on the same
// routing and the same merged Result as the offline sim.Cluster for the
// same (profile, specs, trace, router) — by the same work: the dropper
// walks as many windows on either side, so the tracing wrapper around the
// served dropper hides none of what the engine asks a policy
// (core.StableDecider, the unchanged-queue skip).
func TestShardedControllerMatchesOfflineCluster(t *testing.T) {
	tr := testTrace(t, 500, 5)
	c := newShardedController(t, 4, "p2c:seed=2")
	decisions := decideAll(t, c, tr, 1)
	got, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cl := newOfflineCluster(t, 4, "p2c:seed=2")
	for i := range tr.Tasks {
		shard, _ := cl.Feed(&tr.Tasks[i])
		if shard != decisions[i].Shard {
			t.Fatalf("task %d: offline shard %d, online %d", i, shard, decisions[i].Shard)
		}
	}
	want := cl.Drain()
	if *got != *want {
		t.Fatalf("online merged Result = %+v\nwant (offline cluster) %+v", got, want)
	}
	var online, offline core.CalcStats
	for s, sh := range c.shards {
		online.Add(sh.eng.Calc().Stats())
		offline.Add(cl.Shards()[s].Calc().Stats())
	}
	if online.WindowsBounded != offline.WindowsBounded || online.WindowsEvaluated != offline.WindowsEvaluated || online.WindowsEvaluated == 0 {
		t.Fatalf("dropper windows bounded/evaluated: online %d/%d, offline %d/%d",
			online.WindowsBounded, online.WindowsEvaluated, offline.WindowsBounded, offline.WindowsEvaluated)
	}
}

// TestControllerMatchesOfflineClusterUnderMembership is online == offline
// across churn: the same remove-with-handoff, remove-and-drop, adds on both
// shards, revive and removal of an added machine, at the same task
// boundaries, through Controller.Admin and through Cluster.ApplyChurn. Both
// sides apply an operation with one piece of code (Engine.ApplyMember) and
// number machines by one rule (Cluster.Global), so every decision — the
// matrix-wide index of a runtime-added machine included — and the drained
// Result agree.
func TestControllerMatchesOfflineClusterUnderMembership(t *testing.T) {
	tr := testTrace(t, 500, 5)
	c := newShardedController(t, 2, "rr")
	cl := newOfflineCluster(t, 2, "rr")
	nm := len(c.matrix.Machines())
	op := func(kind sim.MemberKind, machine int, handoff bool) sim.ChurnEvent {
		return sim.ChurnEvent{MemberOp: sim.MemberOp{Kind: kind, Machine: machine, Handoff: handoff}}
	}
	add := func(shard int, mt pet.MachineType) sim.ChurnEvent {
		return sim.ChurnEvent{MemberOp: sim.MemberOp{Kind: sim.MemberAdd, Type: mt}, Shard: shard}
	}
	churn := map[int][]sim.ChurnEvent{
		100: {op(sim.MemberRemove, 2, true)},
		150: {op(sim.MemberRemove, 5, false)},
		// Shard 1 first: its machine is nm+1 whichever add comes first.
		200: {add(1, 0), add(0, 1)},
		300: {op(sim.MemberRevive, 2, false)},
		400: {op(sim.MemberRemove, nm+1, true)},
	}
	onAdded := 0
	for i := range tr.Tasks {
		for _, ev := range churn[i] {
			admin(t, c, AdminMachineRequest{Op: ev.Kind.String(), Machine: ev.Machine, Shard: ev.Shard, Type: int(ev.Type), Handoff: ev.Handoff})
			if err := cl.ApplyChurn(ev); err != nil {
				t.Fatalf("offline %v before task %d: %v", ev.Kind, i, err)
			}
		}
		got := decideRange(t, c, tr, i, i+1, 1)[0]
		shard, ts := cl.Feed(&tr.Tasks[i])
		want := Decision{ID: got.ID, Seq: i, Shard: shard, Machine: -1, Action: actionOf(ts.Status)}
		if want.Action == ActionMap {
			want.Machine = cl.Global(shard, ts.Machine)
			want.MachineName = cl.Shards()[shard].Machines()[ts.Machine].Spec.Name
		}
		if got != want {
			t.Fatalf("task %d: online %+v, offline %+v", i, got, want)
		}
		if got.Machine >= nm {
			onAdded++
		}
	}
	if onAdded == 0 {
		t.Fatal("setup: nothing was mapped to a runtime-added machine")
	}
	got, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := cl.Drain(); *got != *want {
		t.Fatalf("online merged Result = %+v\nwant (offline cluster) %+v", got, want)
	}
}

// TestShardedConcurrentClients hammers a 4-shard controller from many
// goroutines (run under -race): decisions interleave nondeterministically
// across shards, but totals conserve and the merged drain accounts for
// every task.
func TestShardedConcurrentClients(t *testing.T) {
	tr := testTrace(t, 300, 4)
	c := newShardedController(t, 4, "p2c")
	const clients = 8
	per := tr.Len() / clients
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for i := lo; i < lo+per; i++ {
				task := tr.Tasks[i]
				req := DecideRequest{Tasks: []TaskSpec{{
					Type: int(task.Type), Arrival: task.Arrival,
					Deadline: task.Deadline, ExecByType: task.ExecByType,
				}}}
				if _, err := c.Decide(context.Background(), &req); err != nil {
					t.Error(err)
					return
				}
			}
		}(w * per)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.ShardStats(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := c.Metrics().Total(); got != int64(clients*per) {
		t.Fatalf("decided %d tasks, want %d", got, clients*per)
	}
	res, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != clients*per {
		t.Fatalf("drain total %d, want %d", res.Total, clients*per)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsEndpointAndShardMetrics covers GET /v1/stats and the per-shard
// Prometheus series on a sharded server.
func TestStatsEndpointAndShardMetrics(t *testing.T) {
	tr := testTrace(t, 200, 2)
	c := newShardedController(t, 2, "rr")
	srv := newTestServerFor(t, c)
	ctx := context.Background()

	rep, err := Replay(ctx, srv.URL, tr, ReplayConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerShard) != 2 {
		t.Fatalf("per-shard latencies for %d shards, want 2: %+v", len(rep.PerShard), rep.PerShard)
	}
	for _, sl := range rep.PerShard {
		if sl.Requests == 0 || sl.P99 < sl.P50 {
			t.Fatalf("per-shard latency inconsistent: %+v", sl)
		}
	}

	var st StatsResponse
	getJSON(t, srv, "/v1/stats", &st)
	if st.Router != "rr" || len(st.Shards) != 2 {
		t.Fatalf("stats = router %q, %d shards", st.Router, len(st.Shards))
	}
	nt := c.matrix.NumTaskTypes()
	totalArrived := 0
	for s, ss := range st.Shards {
		if ss.Shard != s {
			t.Fatalf("shard %d reports id %d", s, ss.Shard)
		}
		if len(ss.QueueDepths) != len(ss.Machines) || len(ss.QueueDepths) == 0 {
			t.Fatalf("shard %d: %d queue depths vs %d machines", s, len(ss.QueueDepths), len(ss.Machines))
		}
		if len(ss.Robustness) != nt {
			t.Fatalf("shard %d: %d robustness classes, want %d", s, len(ss.Robustness), nt)
		}
		if ss.Mapped+ss.Deferred+ss.Dropped == 0 {
			t.Fatalf("shard %d decided nothing", s)
		}
		totalArrived += ss.Live.Arrived
	}
	if totalArrived != tr.Len() {
		t.Fatalf("shards arrived %d, want %d", totalArrived, tr.Len())
	}

	// Two adds on shard 1 of 2 take every other place past the matrix; the
	// places between them are shard 0's, hold nothing, and so are nobody's
	// machine: not in /v1/stats, not a queue-depth series, not removable.
	nm := len(c.matrix.Machines())
	for _, want := range []int{nm + 1, nm + 3} {
		if got := admin(t, c, AdminMachineRequest{Op: "add", Shard: 1, Type: 0}).Machine; got != want {
			t.Fatalf("add on shard 1 of 2 is machine %d, want %d", got, want)
		}
	}
	getJSON(t, srv, "/v1/stats", &st)
	if got, want := st.Shards[1].Machines, []int{1, 3, 5, 7, nm + 1, nm + 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shard 1 machines = %v, want %v", got, want)
	}
	for _, hole := range []int{nm, nm + 2, nm + 5} {
		_, err := c.Admin(ctx, &AdminMachineRequest{Op: "remove", Machine: hole})
		if err == nil || errors.Is(err, errAdminConflict) || !strings.Contains(err.Error(), "not owned") {
			t.Fatalf("remove of machine %d, which nothing holds: %v, want not owned", hole, err)
		}
	}

	body := getText(t, srv, "/metrics")
	if strings.Contains(body, `taskdrop_queue_depth{machine="`+strconv.Itoa(nm)+`"`) {
		t.Errorf("metrics has a queue-depth series for machine %d, which nothing holds", nm)
	}
	for _, want := range []string{
		`taskdrop_queue_depth{machine="` + strconv.Itoa(nm+3) + `",name="added-0#1"}`,
		`taskdrop_shard_decisions_total{shard="0",action="map"}`,
		`taskdrop_shard_decisions_total{shard="1",action="map"}`,
		`taskdrop_shard_robustness_estimate{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// healthz reports the sharded topology.
	var hs StatusResponse
	getJSON(t, srv, "/healthz", &hs)
	if hs.Shards != 2 || hs.Router != "rr" {
		t.Fatalf("healthz = %+v", hs)
	}

	// After drain, /v1/stats fails fast with 503.
	if _, err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats after drain: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestShardedDrainRejectsAndRetains mirrors the unsharded drain contract
// on a sharded controller: repeat drains return the same merged result
// pointer and new work is rejected.
func TestShardedDrainRejectsAndRetains(t *testing.T) {
	tr := testTrace(t, 60, 1)
	c := newShardedController(t, 3, "rr")
	decideAll(t, c, tr, 10)
	res1, err := c.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(context.Background(), &DecideRequest{Tasks: []TaskSpec{{Arrival: 1, Deadline: 2}}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Decide after drain: err = %v, want ErrDraining", err)
	}
	if _, err := c.ShardStats(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("ShardStats after drain: err = %v, want ErrDraining", err)
	}
	res2, err := c.Drain(context.Background())
	if err != nil || res1 != res2 {
		t.Fatalf("second drain = (%p, %v), want same result pointer", res2, err)
	}
	if err := res1.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardConfigValidation rejects invalid shard/router configurations.
func TestShardConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Profile: "video", Shards: -1},
		{Profile: "video", Shards: 9}, // video system has 8 machines
		{Profile: "video", Router: "nosuch"},
		{Profile: "video", Router: "p2c:sede=2"},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
}

// TestPercentileInterpolation pins the small-sample fix: quantiles
// interpolate between order statistics instead of truncating to one.
func TestPercentileInterpolation(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	one := []time.Duration{42}
	if got := percentile(one, 0.5); got != 42 {
		t.Fatalf("single-sample p50 = %v", got)
	}
	two := []time.Duration{100, 200}
	if got := percentile(two, 0.50); got != 150 {
		t.Fatalf("p50 of {100,200} = %v, want interpolated 150", got)
	}
	if got := percentile(two, 0.99); got != 199 {
		t.Fatalf("p99 of {100,200} = %v, want 199", got)
	}
	if got := percentile(two, 1.0); got != 200 {
		t.Fatalf("p100 of {100,200} = %v, want 200", got)
	}
	// Ten samples 10..100: p99 sits 0.91 of the way from 90 to 100.
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration((i + 1) * 10)
	}
	if got := percentile(ten, 0.99); got != 99 {
		t.Fatalf("p99 of 10..100 = %v, want 99", got)
	}
	if got := percentile(ten, 0.50); got != 55 {
		t.Fatalf("p50 of 10..100 = %v, want 55", got)
	}
}

// newTestServerFor wraps an existing controller in an HTTP test server.
func newTestServerFor(t testing.TB, c *Controller) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)
	return srv
}

// newOfflineCluster builds the offline twin of newShardedController: the
// same matrix, partition, specs and router seed, driven directly instead
// of through per-shard turns.
func newOfflineCluster(t testing.TB, shards int, routerSpec string) *sim.Cluster {
	t.Helper()
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := router.FromSpec(routerSpec)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := sim.NewCluster(m, shards, pol, func(int) (sim.Mapper, core.Policy, error) {
		mp, err := mapping.FromSpec("PAM")
		if err != nil {
			return nil, nil, err
		}
		dp, err := core.PolicyFromSpec("heuristic")
		if err != nil {
			return nil, nil, err
		}
		return mp, dp, nil
	}, sim.Config{QueueCap: 6})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}
