package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// benchTasks pre-generates an oversubscribed arrival sequence long enough
// for b.N decisions by tiling a base trace along the time axis, so the
// system stays under continuous load however many iterations run.
func benchTasks(b testing.TB, n int) []workload.Task {
	b.Helper()
	m, err := pet.CachedMatrix("video")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.Config{TotalTasks: 2000, Window: workload.StandardWindow / 15, GammaSlack: workload.DefaultGammaSlack}
	base := workload.Generate(m, cfg, 1)
	span := base.Tasks[len(base.Tasks)-1].Arrival + 1
	out := make([]workload.Task, n)
	for i := range out {
		t := base.Tasks[i%len(base.Tasks)]
		shift := pmf.Tick(i/len(base.Tasks)) * span
		t.ID = i
		t.Arrival += shift
		t.Deadline += shift
		out[i] = t
	}
	return out
}

// BenchmarkEngineFeed measures the incremental PMF-update hot path with no
// service overhead: one open-engine Feed per op (advance virtual clock,
// reactive/proactive dropping, PAM mapping over tail-completion PMFs
// chained through the shared convolution workspace).
func BenchmarkEngineFeed(b *testing.B) {
	m, err := pet.CachedMatrix("video")
	if err != nil {
		b.Fatal(err)
	}
	mapper, _ := mapping.FromSpec("PAM")
	dropper, _ := core.PolicyFromSpec("heuristic")
	tasks := benchTasks(b, b.N)
	eng := sim.NewOpen(m, mapper, dropper, sim.Config{QueueCap: 6})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Feed(&tasks[i])
	}
}

// BenchmarkControllerDecide measures the full decision path — request
// validation, the shard's turn, decision assembly — one task per
// request.
func BenchmarkControllerDecide(b *testing.B) {
	benchDecide(b, 1)
}

// BenchmarkControllerDecideBatch16 amortizes the per-request cost over a
// 16-task batch (the load generator's default shape). ns/op is per task.
func BenchmarkControllerDecideBatch16(b *testing.B) {
	benchDecide(b, 16)
}

// BenchmarkServiceDecide is the shard-scaling run: the full decision path
// (routing, per-shard turns, engine feed, decision assembly) at
// 1/2/4/8 shards over the 8-machine video system, driven concurrently so
// multi-core hosts also exercise shard parallelism. ns/op is per task;
// aggregate decide throughput is its inverse. Scaling has two sources:
// per-decision work shrinks with the shard's machine count (the mapper
// and dropper scan shard-local queues only — the shard-local calculus
// argument), and on multi-core hosts the shards advance in parallel.
func BenchmarkServiceDecide(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: shards, Router: "rr"})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			tasks := benchTasks(b, b.N)
			var idx atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for pb.Next() {
					t := &tasks[int(idx.Add(1)-1)]
					req := DecideRequest{Tasks: []TaskSpec{{
						Type: int(t.Type), Arrival: t.Arrival,
						Deadline: t.Deadline, ExecByType: t.ExecByType,
					}}}
					if _, err := c.Decide(ctx, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServiceDecideJournal is BenchmarkServiceDecide/shards=1 with
// the decision journal on: every decision appends its WAL records and
// commits before acknowledging. The fsync=interval sub-run is the deployed
// default (buffered flush per ack, background fdatasync). Its absolute
// overhead (~25-30 us/op: record encoding, bufio flush, amortized
// checkpoint) has been stable across recordings; its *percentage* over
// the unjournaled baseline grows every time the decision path itself gets
// faster (the original <= 15% bar was set against a ~155 us decision; see
// the BENCH_service.json notes for the history). fsync=always pays an
// fdatasync inside every ack and is bounded by the storage device, not
// the calculus; it is recorded for the durability-cost table, not gated.
// Checkpoint cost (engine-snapshot marshal every SnapshotEvery records)
// amortizes into the per-op figure at the default cadence.
func BenchmarkServiceDecideJournal(b *testing.B) {
	for _, fsync := range []string{"interval", "always"} {
		b.Run("fsync="+fsync, func(b *testing.B) {
			c, err := New(Config{
				Profile: "video", Mapper: "PAM", Dropper: "heuristic", Shards: 1, Router: "rr",
				JournalDir: b.TempDir(), Fsync: fsync,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			tasks := benchTasks(b, b.N)
			var idx atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for pb.Next() {
					t := &tasks[int(idx.Add(1)-1)]
					req := DecideRequest{Tasks: []TaskSpec{{
						Type: int(t.Type), Arrival: t.Arrival,
						Deadline: t.Deadline, ExecByType: t.ExecByType,
					}}}
					if _, err := c.Decide(ctx, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkServiceDecideTelemetry is BenchmarkServiceDecide/shards=1
// under the three tracing regimes: sample=0 (telemetry compiled in but
// disabled — the deployed default, gated at <= 2% over the PR-6 baseline),
// sample=128 (the hcserve flag's suggested production cadence) and
// sample=1 (trace everything; the worst case, recorded not gated). The
// journal stays off so the delta isolates tracing cost: clock reads, one
// Active allocation per sampled decision, span marks and the ring store.
func BenchmarkServiceDecideTelemetry(b *testing.B) {
	for _, sample := range []int{0, 128, 1} {
		b.Run(fmt.Sprintf("sample=%d", sample), func(b *testing.B) {
			c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic",
				Shards: 1, Router: "rr", TraceSample: sample})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			tasks := benchTasks(b, b.N)
			var idx atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				ctx := context.Background()
				for pb.Next() {
					t := &tasks[int(idx.Add(1)-1)]
					req := DecideRequest{Tasks: []TaskSpec{{
						Type: int(t.Type), Arrival: t.Arrival,
						Deadline: t.Deadline, ExecByType: t.ExecByType,
					}}}
					if _, err := c.Decide(ctx, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkDecideHandler is one POST /v1/decide through NewHandler over an
// in-memory request and recorder: body read, decode, Controller.Decide,
// encode — a shard server's request path short of the socket. Bodies are
// hcload's (labels t<ID>), encoded before the timer starts. ns/op is per
// request.
func BenchmarkDecideHandler(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("tasks=%d", batch), func(b *testing.B) {
			c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			h := NewHandler(c)
			tasks := benchTasks(b, b.N*batch)
			bodies := make([][]byte, b.N)
			for i := range bodies {
				req := DecideRequest{Tasks: make([]TaskSpec, batch)}
				for j := range req.Tasks {
					t := &tasks[i*batch+j]
					req.Tasks[j] = TaskSpec{ID: fmt.Sprintf("t%d", t.ID), Type: int(t.Type), Arrival: t.Arrival,
						Deadline: t.Deadline, ExecByType: t.ExecByType}
				}
				if bodies[i], err = json.Marshal(&req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(bodies[i])))
				if w.Code != http.StatusOK {
					b.Fatalf("HTTP %d: %s", w.Code, w.Body)
				}
			}
		})
	}
}

func benchDecide(b *testing.B, batch int) {
	c, err := New(Config{Profile: "video", Mapper: "PAM", Dropper: "heuristic"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	tasks := benchTasks(b, b.N+batch)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		req := DecideRequest{Tasks: make([]TaskSpec, batch)}
		for j := 0; j < batch; j++ {
			t := &tasks[i+j]
			req.Tasks[j] = TaskSpec{
				Type: int(t.Type), Arrival: t.Arrival,
				Deadline: t.Deadline, ExecByType: t.ExecByType,
			}
		}
		if _, err := c.Decide(ctx, &req); err != nil {
			b.Fatal(err)
		}
	}
}
