package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/sim"
)

// sampleCheckpoints returns the checkpoints a served shard writes, encoded:
// loaded (50 tasks decided, queues and batch holding live tasks), after
// membership churn (Added and Removed set), carrying failure cursors (the
// service never injects failures, so they are set by hand: the codec carries
// what the engine hands it), and drained.
func sampleCheckpoints(t testing.TB) map[string][]byte {
	t.Helper()
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		t.Fatal(err)
	}
	sh := c.shards[0]
	take := func() *ShardCheckpoint {
		var cp *ShardCheckpoint
		if err := sh.do(context.Background(), func() { cp = sh.checkpointState() }); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	out := make(map[string][]byte)
	decideRange(t, c, testTrace(t, 50, 3), 0, 50, 4)
	loaded := take()
	out["loaded"] = appendCheckpoint(nil, loaded)
	for i := range loaded.Engine.Machines {
		loaded.Engine.Failures = append(loaded.Engine.Failures, sim.FailureSnapshot{Draws: int64(i + 1), NextFailAt: 90000, RepairAt: -1})
	}
	out["failures"] = appendCheckpoint(nil, loaded)
	for _, req := range []AdminMachineRequest{{Op: "add", Type: 1}, {Op: "remove", Machine: 2, Handoff: true}} {
		if _, err := c.Admin(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	out["membership"] = appendCheckpoint(nil, take())
	if _, err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	out["drained"] = appendCheckpoint(nil, sh.checkpointState())
	return out
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

// TestCheckpointCodec: every sample checkpoint decodes and re-encodes to
// itself, and every refused payload is refused, a JSON one by name.
func TestCheckpointCodec(t *testing.T) {
	cps := sampleCheckpoints(t)
	for name, b := range cps {
		cp, err := decodeCheckpoint(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if re := appendCheckpoint(nil, cp); !bytes.Equal(re, b) {
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

// FuzzDecodeCheckpoint hammers the checkpoint decoder: it must never panic,
// and any payload it accepts must re-encode to itself (the form is
// canonical, which is what lets verification compare checkpoint bytes).
func FuzzDecodeCheckpoint(f *testing.F) {
	cps := sampleCheckpoints(f)
	for _, b := range cps {
		f.Add(b)
	}
	for _, b := range refusedCheckpoints(cps["loaded"]) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if re := appendCheckpoint(nil, cp); !bytes.Equal(re, b) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", b, re)
		}
	})
}
