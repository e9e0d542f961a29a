package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/varint"
)

// sampleCheckpoints returns the checkpoints a served shard writes, encoded:
// loaded (50 tasks decided, queues and batch holding live tasks), after
// membership churn (Added and Removed set), and drained. A served shard
// never injects failures; the engine's own tests carry failure cursors
// (FuzzReadSnapshot, and TestCheckpointBytes below).
func sampleCheckpoints(t testing.TB) map[string][]byte {
	t.Helper()
	c := newTestController(t)
	sh := c.shards[0]
	take := func() []byte {
		var b []byte
		if err := sh.do(context.Background(), func() { b = sh.appendCheckpoint(nil) }); err != nil {
			t.Fatal(err)
		}
		return b
	}
	out := make(map[string][]byte)
	decideRange(t, c, testTrace(t, 50, 3), 0, 50, 4)
	out["loaded"] = take()
	for _, req := range []AdminMachineRequest{{Op: "add", Type: 1}, {Op: "remove", Machine: 2, Handoff: true}} {
		if _, err := c.Admin(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	out["membership"] = take()
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	out["drained"] = sh.appendCheckpoint(nil)
	return out
}

// engineBytes is an engine's snapshot encoding, the head of every
// checkpoint.
func engineBytes(e *sim.Engine) []byte { return e.AppendSnapshot(nil) }

// restoreFresh restores a decoded checkpoint into shard 0 of a fresh
// controller of the sample configuration, which then encodes it back.
func restoreFresh(t testing.TB, cp *ShardCheckpoint) (*shard, error) {
	sh := newTestController(t).shards[0]
	return sh, sh.restore(cp)
}

// TestCheckpointBytes pins the checkpoint encoding byte for byte, by the
// SHA-256 of every sample checkpoint and of a failure-injected engine's
// snapshot at fixed cut points (a served shard never injects failures, so
// only a bare engine writes failure cursors, here next to membership
// churn). A log written by one build is restored and verified by the next:
// an encoder change that moves one byte fails here.
func TestCheckpointBytes(t *testing.T) {
	cps := sampleCheckpoints(t)
	for name, want := range map[string]string{
		"drained":    "88020017bc0964526d97b5b4004607e683d873194baf816e9a68d462894ef76e",
		"loaded":     "b11d5a0834fd0bc7be70cbd18705a4e3fa804ac8045f8881fe4a96e377f1d9b8",
		"membership": "f88e1bf4ad2be73022d134d6daa1c759af9d3dd5dd6b73bd11f0a454ee08ceab",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(cps[name])); got != want {
			t.Errorf("%s checkpoint: sha256 %s, want %s", name, got, want)
		}
	}

	e := failureEngine(t, 10)
	tr := testTrace(t, 200, 9)
	want := map[int]string{
		0:   "d1241c30caadc02c382b2b2ca3f8a61c20a25fedeb1d1d19d235b9d5f6139662",
		1:   "377a41dcf273392b8519d126dd341827193f6827c51778274031b630c1244e2e",
		60:  "4f6c3091ace9743501915b2f95612ceef90503618746e7bb901c0bebf4fb2406",
		120: "9026f2c93d49e464f38d268fdd17c37192d6a6f83a1f06a56a4cd2a75d85dc08",
		199: "7c23d8014049c76daa4cb43dcacef6e5c91f6d273830770466d288987db1a338",
		200: "44fdde7cafd691b0bf9b421e02016b6eb6374db097b433acae503381ae98f5eb",
	}
	for i := 0; i <= len(tr.Tasks); i++ {
		if h, ok := want[i]; ok {
			if got := fmt.Sprintf("%x", sha256.Sum256(engineBytes(e))); got != h {
				t.Errorf("engine after %d tasks: sha256 %s, want %s", i, got, h)
			}
		}
		if i == len(tr.Tasks) {
			break
		}
		e.Feed(&tr.Tasks[i])
		var op *sim.MemberOp
		switch i {
		case 50:
			op = &sim.MemberOp{Kind: sim.MemberRemove, Machine: 1, Handoff: true}
		case 80:
			op = &sim.MemberOp{Kind: sim.MemberAdd, Type: 0}
		case 150:
			op = &sim.MemberOp{Kind: sim.MemberRevive, Machine: 1}
		}
		if op != nil {
			if err := e.ApplyMember(*op, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// failureEngine is an open engine of the sample configuration that injects
// machine failures, so its snapshots carry failure cursors, and excludes
// boundary tasks from its tally.
func failureEngine(t testing.TB, boundary int) *sim.Engine {
	t.Helper()
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := mapping.FromSpec("PAM")
	if err != nil {
		t.Fatal(err)
	}
	dropper, err := core.PolicyFromSpec("heuristic")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.BoundaryExclusion = boundary
	cfg.Failures = sim.FailureConfig{MTBF: 300, MeanRepair: 80, Seed: 5}
	return sim.NewOpen(m, mapper, dropper, cfg)
}

// failureCheckpoint is a checkpoint whose engine carries failure cursors: a
// failure-injected engine's snapshot after 60 tasks, under the shard trailer
// (index, watermark, counters, robustness) of a valid checkpoint. It
// decodes, and a served shard, which injects no failures, refuses to
// restore it.
func failureCheckpoint(t testing.TB, valid []byte) []byte {
	t.Helper()
	r := varint.NewReader(valid, "checkpoint")
	sim.ReadSnapshot(&r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	e := failureEngine(t, 0)
	tr := testTrace(t, 60, 9)
	for i := range tr.Tasks {
		e.Feed(&tr.Tasks[i])
	}
	return append(engineBytes(e), valid[len(valid)-r.Remaining():]...)
}

// TestCheckpointSizes pins what a checkpoint costs, as TestRecordSizes does
// for records: a drained shard's (census, tally, empty queues) and a loaded
// one's after 50 tasks. As JSON they took 921 and 3 895 bytes.
func TestCheckpointSizes(t *testing.T) {
	cps := sampleCheckpoints(t)
	for name, want := range map[string]int{"drained": 111, "loaded": 679} {
		if got := len(cps[name]); got != want {
			t.Errorf("%s checkpoint: %d bytes, want %d", name, got, want)
		}
	}
}

// refusedCheckpoints are payloads decodeCheckpoint must refuse, built from
// a valid one: cut short, a count past the bytes left, a varint off its
// shortest form, a trailing byte, and the JSON builds before the binary
// form wrote.
func refusedCheckpoints(valid []byte) map[string][]byte {
	// Format byte, clock, 9 census counts, credit, 5 head counts, head
	// credit: the tail count follows.
	head := append([]byte{valid[0]}, make([]byte, 1+9+1+5+1)...)
	return map[string][]byte{
		"truncated":      valid[:len(valid)/2],
		"count past end": append(head, 0xe8, 0x07), // a 1000-entry tail, no entries
		"overlong clock": append([]byte{valid[0]}, 0x80, 0x00),
		"trailing byte":  append(append([]byte(nil), valid...), 0),
		"json":           []byte(`{"shard":0,"seq_watermark":41,"engine":{"version":2,"clock":900}}`),
		"empty":          nil,
	}
}

// TestCheckpointCodec: every sample checkpoint decodes, restores into a
// fresh shard and re-encodes to itself, and every refused payload is
// refused, a JSON one by name.
func TestCheckpointCodec(t *testing.T) {
	cps := sampleCheckpoints(t)
	for name, b := range cps {
		cp, err := decodeCheckpoint(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sh, err := restoreFresh(t, cp)
		if err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if re := sh.appendCheckpoint(nil); !bytes.Equal(re, b) {
			t.Fatalf("%s: re-encoding differs:\n in  %x\n out %x", name, b, re)
		}
	}
	for name, b := range refusedCheckpoints(cps["drained"]) {
		cp, err := decodeCheckpoint(b)
		switch {
		case err == nil:
			t.Errorf("%s: decoded %+v", name, cp)
		case name == "json" && !strings.Contains(err.Error(), "JSON"):
			t.Errorf("json: %v, want an error naming JSON", err)
		}
	}
}

// FuzzDecodeCheckpoint hammers the checkpoint decoder and restore: neither
// may panic, and any payload the decoder accepts and a fresh shard restores
// must re-encode to itself (the form is canonical, which is what lets
// verification compare checkpoint bytes).
func FuzzDecodeCheckpoint(f *testing.F) {
	cps := sampleCheckpoints(f)
	for _, b := range cps {
		f.Add(b)
	}
	for _, b := range refusedCheckpoints(cps["loaded"]) {
		f.Add(b)
	}
	f.Add(failureCheckpoint(f, cps["loaded"]))
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		sh, err := restoreFresh(t, cp)
		if err != nil {
			return
		}
		if re := sh.appendCheckpoint(nil); !bytes.Equal(re, b) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", b, re)
		}
	})
}
