package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/sim"
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
		resp := admin(t, c, AdminMachineRequest{Op: "remove", Machine: m, Handoff: true})
		if resp.LiveMachines != nm-1-m {
			t.Fatalf("live after removing %d machines = %d, want %d", m+1, resp.LiveMachines, nm-1-m)
		}
	}
	// Removing twice is a state conflict, not a malformed request.
	if _, err := c.Admin(context.Background(), &AdminMachineRequest{Op: "remove", Machine: 0}); !errors.Is(err, errAdminConflict) {
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
	if resp := admin(t, c, AdminMachineRequest{Op: "revive", Machine: 3}); resp.LiveMachines != 1 {
		t.Fatalf("live after revive = %d, want 1", resp.LiveMachines)
	}
	if _, err := c.Decide(context.Background(), &req); err != nil {
		t.Fatalf("decide after revive: %v", err)
	}

	// Add a machine of an existing type: fresh global index past the matrix.
	resp := admin(t, c, AdminMachineRequest{Op: "add", Shard: 0, Type: 1})
	if resp.Machine != nm {
		t.Fatalf("added machine global index = %d, want %d", resp.Machine, nm)
	}
	if resp.MachineName == "" || resp.LiveMachines != 2 {
		t.Fatalf("add response %+v, want a name and 2 live machines", resp)
	}
	// The added machine is addressable for removal by its new index.
	if got := admin(t, c, AdminMachineRequest{Op: "remove", Machine: nm, Handoff: true}); got.LiveMachines != 1 {
		t.Fatalf("live after removing added machine = %d, want 1", got.LiveMachines)
	}

	// Validation surface: unknown ops, out-of-range targets.
	for _, bad := range []AdminMachineRequest{
		{Op: "explode"},
		{Op: "remove", Machine: 999},
		{Op: "add", Shard: 9, Type: 0},
		{Op: "add", Shard: 0, Type: 99},
	} {
		if _, err := c.Admin(context.Background(), &bad); err == nil {
			t.Errorf("admin accepted %+v", bad)
		}
	}
	// Indexes far past anything the shard holds, and ones whose low 32 bits
	// name a removed machine that a revive would accept: all not owned.
	for _, g := range []int{-1, nm + 1, 1 << 31, 1<<32 + 1, 1<<32 + nm + 1, math.MaxInt} {
		for _, op := range []string{"remove", "revive"} {
			_, err := c.Admin(context.Background(), &AdminMachineRequest{Op: op, Machine: g})
			if err == nil || errors.Is(err, errAdminConflict) || !strings.Contains(err.Error(), "not owned") {
				t.Errorf("%s of machine %d: %v, want not owned", op, g, err)
			}
		}
	}
	if live := c.shards[0].liveMachines.Load(); live != 1 {
		t.Errorf("live machines after the refused operations = %d, want 1", live)
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
		resp, body := post(AdminMachineRequest{Op: "remove", Machine: m, Handoff: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("remove machine %d: %d %s", m, resp.StatusCode, body)
		}
		var ar AdminMachineResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Op != "remove" || ar.Machine != m {
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
	if resp, _ := post(AdminMachineRequest{Op: "revive", Machine: 0}); resp.StatusCode != http.StatusOK {
		t.Fatalf("revive status = %d", resp.StatusCode)
	}
	if resp, _ := post(AdminMachineRequest{Op: "revive", Machine: 0}); resp.StatusCode != http.StatusConflict {
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

// TestReadyzReportsDegraded: a server whose every shard has zero live
// machines can admit nothing, and says so on /readyz — 503 "degraded" —
// while one live machine on any shard keeps it ready.
func TestReadyzReportsDegraded(t *testing.T) {
	c := newShardedController(t, 2, "rr")
	srv := newTestServerFor(t, c)
	readyz := func() (int, ReadyResponse) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}
	nm := len(c.matrix.Machines())
	for m := 0; m < nm; m++ {
		admin(t, c, AdminMachineRequest{Op: "remove", Machine: m, Handoff: true})
		code, rr := readyz()
		if m < nm-1 && (code != http.StatusOK || !rr.Ready || rr.Status != "ok") {
			t.Fatalf("/readyz with %d of %d machines removed = %d %+v, want 200 ok", m+1, nm, code, rr)
		}
		if m == nm-1 && (code != http.StatusServiceUnavailable || rr.Ready || rr.Status != "degraded") {
			t.Fatalf("/readyz with every machine removed = %d %+v, want 503 degraded", code, rr)
		}
	}
	admin(t, c, AdminMachineRequest{Op: "revive", Machine: nm - 1})
	if code, rr := readyz(); code != http.StatusOK || rr.Status != "ok" {
		t.Fatalf("/readyz after a revive = %d %+v, want 200 ok", code, rr)
	}
}

// TestJournalCrashRecoveryWithMembership extends the crash-recovery
// tentpole across churn: membership operations mid-trace are journaled
// inputs, so a killed server recovers its post-churn machine set and the
// decision stream re-derives identically to an uninterrupted reference
// that saw the same operations. Machines are added to shard 1 and then to
// shard 0: an index handed out in arrival order would swap the two on the
// restart, which recovers shard 0 first.
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
	churn := func(req AdminMachineRequest) *AdminMachineResponse {
		t.Helper()
		admin(t, ref, req)
		return admin(t, jc, req)
	}

	const cut = 250
	wantHead := decideRange(t, ref, tr, 0, 100, 8)
	gotHead := decideRange(t, jc, tr, 0, 100, 8)
	if !reflect.DeepEqual(gotHead, wantHead) {
		t.Fatal("journaled controller diverged before any churn")
	}

	churn(AdminMachineRequest{Op: "remove", Machine: 2, Handoff: true})
	churn(AdminMachineRequest{Op: "remove", Machine: 5})
	added := churn(AdminMachineRequest{Op: "add", Shard: 1, Type: 0})
	churn(AdminMachineRequest{Op: "add", Shard: 0, Type: 1})
	wantHead = decideRange(t, ref, tr, 100, cut, 8)
	gotHead = decideRange(t, jc, tr, 100, cut, 8)
	if !reflect.DeepEqual(gotHead, wantHead) {
		t.Fatal("journaled controller diverged after churn")
	}
	churn(AdminMachineRequest{Op: "revive", Machine: 2})
	// Shard 1's next add would be machine added+2; until then the index is
	// refused under the turn and logs nothing (the verifier counts below).
	if _, err := jc.Admin(context.Background(), &AdminMachineRequest{Op: "remove", Machine: added.Machine + 2}); err == nil {
		t.Fatalf("removed machine %d, which nothing holds", added.Machine+2)
	}

	pre, err := jc.ShardStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	crash(jc)
	// hcreplay's verifier re-derives the stream across every membership op
	// the killed log retains, the revive among them: it sits in the tail
	// recovery replays. Ops behind the base checkpoint went with the trim;
	// the checkpoint carries their effect.
	if members := verifiedMembership(t, jcfg.JournalDir); members == 0 {
		t.Error("verified no membership records in the killed log, want at least the revive")
	}

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
	const mid = 330
	wantTail := decideRange(t, ref, tr, cut, mid, 8)
	gotTail := decideRange(t, jc2, tr, cut, mid, 8)
	if !reflect.DeepEqual(gotTail, wantTail) {
		t.Fatal("recovered controller diverged from reference after the crash")
	}

	// Post-recovery membership operations still resolve global indexes: the
	// one the live server answered shard 1's add with names that machine.
	rm := AdminMachineRequest{Op: "remove", Machine: added.Machine, Handoff: true}
	if resp := admin(t, jc2, rm); resp.Shard != 1 || resp.MachineName != added.MachineName {
		t.Fatalf("machine %d is %q on shard %d after recovery, was %q on shard 1", added.Machine, resp.MachineName, resp.Shard, added.MachineName)
	}
	admin(t, ref, rm)
	wantTail = decideRange(t, ref, tr, mid, len(tr.Tasks), 8)
	gotTail = decideRange(t, jc2, tr, mid, len(tr.Tasks), 8)
	if !reflect.DeepEqual(gotTail, wantTail) {
		t.Fatal("recovered controller diverged from reference after the post-recovery remove")
	}

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

	// And across every one the drained log retains.
	verifiedMembership(t, jcfg.JournalDir)
}

// verifiedMembership verifies a journal root, requires each shard's walk to
// have re-applied every membership record its log holds on disk, and
// returns how many that was.
func verifiedMembership(t *testing.T, root string) int {
	t.Helper()
	stats, err := VerifyAll(root)
	if err != nil {
		t.Fatalf("journal with membership ops failed verification: %v", err)
	}
	var members int
	for _, st := range stats {
		if want := logged(t, root, st.Shard, journal.KindMembership); st.Membership != want {
			t.Errorf("shard %d: verified %d membership records, its log holds %d", st.Shard, st.Membership, want)
		}
		members += st.Membership
	}
	return members
}

// TestMemberKindsAreJournalCodes pins what lets shard.applyMembership
// convert a record's action code into the operation kind, not look it up.
func TestMemberKindsAreJournalCodes(t *testing.T) {
	for kind, code := range map[sim.MemberKind]uint8{
		sim.MemberAdd: journal.MemberAdd, sim.MemberRemove: journal.MemberRemove, sim.MemberRevive: journal.MemberRevive,
	} {
		if uint8(kind) != code {
			t.Errorf("sim kind %v is %d, the journal logs it as %d", kind, uint8(kind), code)
		}
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
	if plan[0].AtTask != 100 || plan[0].Req.Op != "remove" || plan[0].Req.Handoff {
		t.Fatalf("plan[0] = %+v, want remove@100 with drop", plan[0])
	}
	if plan[1].AtTask != 50 || plan[1].Req.Op != "revive" || plan[1].Req.Machine != 2 {
		t.Fatalf("plan[1] = %+v, want revive@50 machine 2", plan[1])
	}
	if plan[2].Req.Op != "add" || plan[2].Req.Shard != 1 || plan[2].Req.Type != 3 {
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
