package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
)

// TestWireRoundTrip encodes every wire type, decodes it back, and requires
// equality — the service's JSON contract.
func TestWireRoundTrip(t *testing.T) {
	roundTrip := func(t *testing.T, in, out any) {
		t.Helper()
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v\njson: %s", in, out, data)
		}
	}

	req := &DecideRequest{Tasks: []TaskSpec{
		{ID: "a", Type: 2, Arrival: 10, Deadline: 450, ExecByType: []pmf.Tick{30, 70}},
		{Type: 0, Arrival: 11, Deadline: 99},
	}}
	roundTrip(t, req, &DecideRequest{})

	resp := &DecideResponse{Now: 42, Decisions: []Decision{
		{ID: "a", Seq: 0, Action: ActionMap, Machine: 3, MachineName: "fast#0"},
		{Seq: 1, Action: ActionDefer, Machine: -1},
		{Seq: 2, Action: ActionDrop, Machine: -1},
	}}
	roundTrip(t, resp, &DecideResponse{})

	dr := &DrainResponse{Result: &sim.Result{Total: 9, Measured: 9, OnTime: 5, Late: 1,
		DroppedReactive: 1, DroppedProactive: 2, MOnTime: 5, MLate: 1, MDroppedReactive: 1,
		MDroppedProactive: 2, RobustnessPct: 55.5, Makespan: 1234}}
	roundTrip(t, dr, &DrainResponse{})

	st := &StatusResponse{Status: "ok", Profile: "spec", Mapper: "PAM", Dropper: "heuristic", Machines: 8}
	roundTrip(t, st, &StatusResponse{})

	rd := &ReadyResponse{Ready: true, Status: "ok"}
	roundTrip(t, rd, &ReadyResponse{})
}

// TestWireGoldenFixtures pins the exact serialized form of the wire types
// that cross process boundaries in a multi-process deployment. These
// bytes are the protocol between hcrouter, hcserve and hcload built at
// different versions: a marshalling change that alters them is a
// compatibility break and must be deliberate.
func TestWireGoldenFixtures(t *testing.T) {
	golden := func(t *testing.T, v any, want string) {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("golden mismatch for %T:\n got: %s\nwant: %s", v, data, want)
		}
		// The fixture must also decode back into an equal value — no
		// write-only fields.
		out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := json.Unmarshal([]byte(want), out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, out) {
			t.Errorf("golden fixture for %T does not decode back:\n got: %+v\nwant: %+v", v, out, v)
		}
	}

	golden(t,
		&DecideRequest{DecisionID: "r1a-42", Tasks: []TaskSpec{
			{ID: "t7", Type: 2, Arrival: 120, Deadline: 890, ExecByType: []pmf.Tick{30, 70}},
			{Type: 0, Arrival: 121, Deadline: 400},
		}},
		`{"decision_id":"r1a-42","tasks":[`+
			`{"id":"t7","type":2,"arrival":120,"deadline":890,"exec_by_type":[30,70]},`+
			`{"type":0,"arrival":121,"deadline":400}]}`)

	// A decision without router involvement omits backend; one proxied by
	// hcrouter carries it.
	golden(t,
		&Decision{ID: "t7", Seq: 3, Action: ActionMap, Shard: 1, Machine: 5, MachineName: "fast#1"},
		`{"id":"t7","seq":3,"action":"map","shard":1,"machine":5,"machine_name":"fast#1"}`)
	golden(t,
		&Decision{ID: "t8", Seq: 0, Action: ActionDrop, Shard: 0, Backend: 1, Machine: -1},
		`{"id":"t8","seq":0,"action":"drop","shard":0,"backend":1,"machine":-1}`)

	golden(t,
		&StatsResponse{Router: "hash", Shards: []ShardSnapshot{{
			Shard:        0,
			Now:          512,
			Live:         sim.Live{Arrived: 9, Batch: 1, Queued: 4, Running: 2, Outcomes: sim.Outcomes{OnTime: 1, Late: 1}},
			QueueDepths:  []int{2, 3},
			Machines:     []int{0, 2},
			LiveMachines: 2,
			Robustness:   []float64{0.9, 0.5},
			Requests:     3,
			Mapped:       6,
			Deferred:     2,
			Dropped:      1,
			SeqWatermark: 8,
		}}},
		`{"router":"hash","shards":[{"shard":0,"now":512,`+
			`"live":{"arrived":9,"batch":1,"queued":4,"running":2,"on_time":1,"late":1,`+
			`"dropped_reactive":0,"dropped_proactive":0,"failed":0},`+
			`"queue_depths":[2,3],"machines":[0,2],"live_machines":2,`+
			`"robustness_by_class":[0.9,0.5],"requests":3,"mapped":6,"deferred":2,"dropped":1,`+
			`"seq_watermark":8}]}`)

	golden(t,
		&ReadyResponse{Ready: false, Status: "booting"},
		`{"ready":false,"status":"booting"}`)

	// Admin membership operations (dynamic membership): hcload's churn
	// plans and operational tooling speak these across versions.
	golden(t,
		&AdminMachineRequest{Op: "remove", Machine: 3, Handoff: true},
		`{"op":"remove","machine":3,"handoff":true}`)
	golden(t,
		&AdminMachineRequest{Op: "add", Shard: 1, Type: 2},
		`{"op":"add","shard":1,"type":2}`)
	golden(t,
		&AdminMachineResponse{Op: "remove", Shard: 1, Machine: 3, MachineName: "fast#1", Now: 512, LiveMachines: 3},
		`{"op":"remove","shard":1,"machine":3,"machine_name":"fast#1","now":512,"live_machines":3}`)
}

// TestWireTagsAreSnakeCase keeps the wire vocabulary consistent with
// sim.Result / runner.Aggregate: every JSON key is lower snake_case.
func TestWireTagsAreSnakeCase(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(TaskSpec{}),
		reflect.TypeOf(DecideRequest{}),
		reflect.TypeOf(Decision{}),
		reflect.TypeOf(DecideResponse{}),
		reflect.TypeOf(DrainResponse{}),
		reflect.TypeOf(StatusResponse{}),
		reflect.TypeOf(ReadyResponse{}),
		reflect.TypeOf(Snapshot{}),
		reflect.TypeOf(ShardSnapshot{}),
		reflect.TypeOf(StatsResponse{}),
		reflect.TypeOf(ShardLatency{}),
		reflect.TypeOf(ReplayReport{}),
		reflect.TypeOf(AdminMachineRequest{}),
		reflect.TypeOf(AdminMachineResponse{}),
		reflect.TypeOf(ChurnAction{}),
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

// TestTaskSpecValidate exercises the request validation boundary.
func TestTaskSpecValidate(t *testing.T) {
	good := TaskSpec{Type: 1, Arrival: 5, Deadline: 50, ExecByType: []pmf.Tick{3, 4}}
	if err := good.Validate(2, 2); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []TaskSpec{
		{Type: -1, Arrival: 1, Deadline: 2},
		{Type: 2, Arrival: 1, Deadline: 2},
		{Type: 0, Arrival: -1, Deadline: 2},
		{Type: 0, Arrival: 1, Deadline: -2},
		{Type: 0, Arrival: 1, Deadline: 2, ExecByType: []pmf.Tick{1}},
		{Type: 0, Arrival: 1, Deadline: 2, ExecByType: []pmf.Tick{0, 1}},
	}
	for i, c := range cases {
		if err := c.Validate(2, 2); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, c)
		}
	}
}
