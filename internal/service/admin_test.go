package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// admin applies one membership operation and fails the test on error.
func admin(t testing.TB, c *Controller, req AdminMachineRequest) *AdminMachineResponse {
	t.Helper()
	resp, err := c.Admin(context.Background(), &req)
	if err != nil {
		t.Fatalf("admin %+v: %v", req, err)
	}
	return resp
}

// TestAdminMembershipLifecycle drives the controller through the full
// remove → degraded shed → revive → recover cycle, plus the add path and
// the conflict/validation surface.
func TestAdminMembershipLifecycle(t *testing.T) {
	c := newTestController(t)
	tr := testTrace(t, 60, 21)
	decideRange(t, c, tr, 0, 20, 5)

	nm := len(c.matrix.Machines())
	// Remove every machine: the shard degrades to zero live capacity.
	for m := 0; m < nm; m++ {
		resp := admin(t, c, AdminMachineRequest{Op: AdminOpRemove, Machine: m, Handoff: true})
		if resp.LiveMachines != nm-1-m {
			t.Fatalf("live after removing %d machines = %d, want %d", m+1, resp.LiveMachines, nm-1-m)
		}
	}
	// Removing twice is a state conflict, not a malformed request.
	if _, err := c.Admin(context.Background(), &AdminMachineRequest{Op: AdminOpRemove, Machine: 0}); !errors.Is(err, errAdminConflict) {
		t.Fatalf("double remove: %v, want errAdminConflict", err)
	}

	// A degraded shard sheds decides with ErrShardDegraded.
	req := DecideRequest{Tasks: []TaskSpec{{
		Type: int(tr.Tasks[20].Type), Arrival: tr.Tasks[20].Arrival,
		Deadline: tr.Tasks[20].Deadline, ExecByType: tr.Tasks[20].ExecByType,
	}}}
	if _, err := c.Decide(context.Background(), &req); !errors.Is(err, ErrShardDegraded) {
		t.Fatalf("decide on degraded shard: %v, want ErrShardDegraded", err)
	}

	// Revive one machine: capacity is back and decides flow again.
	if resp := admin(t, c, AdminMachineRequest{Op: AdminOpRevive, Machine: 3}); resp.LiveMachines != 1 {
		t.Fatalf("live after revive = %d, want 1", resp.LiveMachines)
	}
	if _, err := c.Decide(context.Background(), &req); err != nil {
		t.Fatalf("decide after revive: %v", err)
	}

	// Add a machine of an existing type: fresh global index past the matrix.
	resp := admin(t, c, AdminMachineRequest{Op: AdminOpAdd, Shard: 0, Type: 1})
	if resp.Machine != nm {
		t.Fatalf("added machine global index = %d, want %d", resp.Machine, nm)
	}
	if resp.MachineName == "" || resp.LiveMachines != 2 {
		t.Fatalf("add response %+v, want a name and 2 live machines", resp)
	}
	// The added machine is addressable for removal by its new index.
	if got := admin(t, c, AdminMachineRequest{Op: AdminOpRemove, Machine: nm, Handoff: true}); got.LiveMachines != 1 {
		t.Fatalf("live after removing added machine = %d, want 1", got.LiveMachines)
	}

	// Validation surface: unknown ops, out-of-range targets.
	for _, bad := range []AdminMachineRequest{
		{Op: "explode"},
		{Op: AdminOpRemove, Machine: 999},
		{Op: AdminOpAdd, Shard: 9, Type: 0},
		{Op: AdminOpAdd, Shard: 0, Type: 99},
	} {
		if _, err := c.Admin(context.Background(), &bad); err == nil {
			t.Errorf("admin accepted %+v", bad)
		}
	}
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdminHTTP exercises the wire surface: 200 on success, 429 +
// Retry-After on a degraded-shard decide, 409 on conflicts, 400 on junk.
func TestAdminHTTP(t *testing.T) {
	c, srv := newTestServer(t)
	nm := len(c.matrix.Machines())

	post := func(body any) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/admin/machines", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	for m := 0; m < nm; m++ {
		resp, body := post(AdminMachineRequest{Op: AdminOpRemove, Machine: m, Handoff: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("remove machine %d: %d %s", m, resp.StatusCode, body)
		}
		var ar AdminMachineResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Op != AdminOpRemove || ar.Machine != m {
			t.Fatalf("admin response %+v", ar)
		}
	}

	// Degraded decide sheds 429 with a Retry-After hint.
	dreq, _ := json.Marshal(DecideRequest{Tasks: []TaskSpec{{Type: 0, Arrival: 1, Deadline: 500}}})
	dresp, err := http.Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(dreq))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("degraded decide status = %d, want 429", dresp.StatusCode)
	}
	if dresp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded decide missing Retry-After")
	}

	// Conflict → 409; junk body → 400; unknown field → 400.
	if resp, _ := post(AdminMachineRequest{Op: AdminOpRevive, Machine: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("revive status = %d", resp.StatusCode)
	}
	if resp, _ := post(AdminMachineRequest{Op: AdminOpRevive, Machine: 0}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double revive status = %d, want 409", resp.StatusCode)
	}
	junk, err := http.Post(srv.URL+"/v1/admin/machines", "application/json", strings.NewReader(`{"op":`))
	if err != nil {
		t.Fatal(err)
	}
	junk.Body.Close()
	if junk.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk body status = %d, want 400", junk.StatusCode)
	}

	// The metrics page exports the membership families.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, family := range []string{
		"taskdrop_membership_live_machines",
		"taskdrop_membership_removed_machines",
		"taskdrop_membership_ops_total",
		"taskdrop_membership_shed_total",
		"taskdrop_membership_degraded",
	} {
		if !strings.Contains(mbuf.String(), family) {
			t.Errorf("metrics page missing %s", family)
		}
	}
}

// TestJournalCrashRecoveryWithMembership extends the crash-recovery
// tentpole across churn: membership operations mid-trace are journaled
// inputs, so a killed server recovers its post-churn machine set and the
// decision stream re-derives identically to an uninterrupted reference
// that saw the same operations.
func TestJournalCrashRecoveryWithMembership(t *testing.T) {
	tr := testTrace(t, 400, 23)
	jcfg := Config{
		Profile: "video", Mapper: "PAM", Dropper: "heuristic",
		Shards: 2, Router: "rr",
		JournalDir: t.TempDir(), Fsync: "never", SnapshotEvery: 60,
	}
	rcfg := jcfg
	rcfg.JournalDir = ""

	ref, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	jc, err := New(jcfg)
	if err != nil {
		t.Fatal(err)
	}

	// churn applies the same operation to both controllers.
	churn := func(req AdminMachineRequest) {
		t.Helper()
		admin(t, ref, req)
		admin(t, jc, req)
	}

	const cut = 250
	wantHead := decideRange(t, ref, tr, 0, 100, 8)
	gotHead := decideRange(t, jc, tr, 0, 100, 8)
	if !reflect.DeepEqual(gotHead, wantHead) {
		t.Fatal("journaled controller diverged before any churn")
	}

	churn(AdminMachineRequest{Op: AdminOpRemove, Machine: 2, Handoff: true})
	churn(AdminMachineRequest{Op: AdminOpRemove, Machine: 5})
	churn(AdminMachineRequest{Op: AdminOpAdd, Shard: 1, Type: 0})
	wantHead = decideRange(t, ref, tr, 100, cut, 8)
	gotHead = decideRange(t, jc, tr, 100, cut, 8)
	if !reflect.DeepEqual(gotHead, wantHead) {
		t.Fatal("journaled controller diverged after churn")
	}
	churn(AdminMachineRequest{Op: AdminOpRevive, Machine: 2})

	pre, err := jc.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	crash(jc)

	jc2, err := New(jcfg)
	if err != nil {
		t.Fatalf("recovery across membership ops: %v", err)
	}
	post, err := jc2.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(post, pre) {
		t.Fatalf("recovered shard stats diverged:\n pre %+v\npost %+v", pre, post)
	}
	for _, ss := range post {
		if ss.LiveMachines == 0 {
			t.Fatalf("shard %d recovered with no live machines: %+v", ss.Shard, ss)
		}
	}

	// The recovered controller continues the stream exactly — the removed
	// machine stays removed, the added machine keeps its place, and the
	// revived machine is schedulable again.
	wantTail := decideRange(t, ref, tr, cut, len(tr.Tasks), 8)
	gotTail := decideRange(t, jc2, tr, cut, len(tr.Tasks), 8)
	if !reflect.DeepEqual(gotTail, wantTail) {
		t.Fatal("recovered controller diverged from reference after the crash")
	}

	// Post-recovery membership operations still resolve global indexes —
	// including the runtime-added machine re-registered during recovery.
	nm := len(jc2.matrix.Machines())
	if resp := admin(t, jc2, AdminMachineRequest{Op: AdminOpRemove, Machine: nm, Handoff: true}); resp.Shard != 1 {
		t.Fatalf("recovered added machine on shard %d, want 1", resp.Shard)
	}
	admin(t, ref, AdminMachineRequest{Op: AdminOpRemove, Machine: nm, Handoff: true})

	got, err := jc2.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drained results diverged:\n got %+v\nwant %+v", got, want)
	}

	// hcreplay's verifier re-derives the stream across the membership ops.
	stats, err := VerifyAll(jcfg.JournalDir)
	if err != nil {
		t.Fatalf("journal with membership ops failed verification: %v", err)
	}
	var members int
	for _, st := range stats {
		members += st.Membership
	}
	if members != 5 {
		t.Errorf("verified %d membership records, want 5", members)
	}
}

// TestParseChurnPlan covers the hcload fault-injection grammar.
func TestParseChurnPlan(t *testing.T) {
	plan, err := ParseChurnPlan("100:remove:2:drop,50:revive:2,200:add:1:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("plan length = %d, want 3", len(plan))
	}
	if plan[0].AtTask != 100 || plan[0].Req.Op != AdminOpRemove || plan[0].Req.Handoff {
		t.Fatalf("plan[0] = %+v, want remove@100 with drop", plan[0])
	}
	if plan[1].AtTask != 50 || plan[1].Req.Op != AdminOpRevive || plan[1].Req.Machine != 2 {
		t.Fatalf("plan[1] = %+v, want revive@50 machine 2", plan[1])
	}
	if plan[2].Req.Op != AdminOpAdd || plan[2].Req.Shard != 1 || plan[2].Req.Type != 3 {
		t.Fatalf("plan[2] = %+v, want add shard 1 type 3", plan[2])
	}
	// A plain remove defaults to handing the queue off.
	if p, err := ParseChurnPlan("7:remove:0"); err != nil || !p[0].Req.Handoff {
		t.Fatalf("plain remove = %+v, %v; want handoff default", p, err)
	}
	if p, err := ParseChurnPlan(""); err != nil || p != nil {
		t.Fatalf("empty plan = %v, %v", p, err)
	}
	for _, bad := range []string{"x:remove:1", "10:frob:1", "10:add:1", "10:remove", "-5:revive:0"} {
		if _, err := ParseChurnPlan(bad); err == nil {
			t.Errorf("ParseChurnPlan(%q) accepted", bad)
		}
	}
}
