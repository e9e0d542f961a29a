// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V) at bench scale, plus micro-benchmarks of the hot paths and the
// ablations called out in DESIGN.md.
//
// Figure benches run the same harness as cmd/hcexp with 1 trial at 2%
// scale so `go test -bench=.` completes quickly; the recorded paper-shape
// numbers in EXPERIMENTS.md come from cmd/hcexp at larger scale.
package taskdrop_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/expt"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// benchOptions returns harness options at bench scale.
func benchOptions() expt.Options {
	o := expt.DefaultOptions()
	o.Trials = 1
	o.Scale = 0.02
	o.Progress = io.Discard
	return o
}

// benchFigure runs one paper figure end to end per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	fig, ok := expt.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	for i := 0; i < b.N; i++ {
		tabs, err := fig.Run(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			b.Fatal("figure produced no data")
		}
	}
}

// One benchmark per evaluation figure/table of the paper.

func BenchmarkFig5EffectiveDepth(b *testing.B)   { benchFigure(b, "fig5") }
func BenchmarkFig6Beta(b *testing.B)             { benchFigure(b, "fig6") }
func BenchmarkFig7aHeterogeneous(b *testing.B)   { benchFigure(b, "fig7a") }
func BenchmarkFig7bHomogeneous(b *testing.B)     { benchFigure(b, "fig7b") }
func BenchmarkFig8DroppingPolicies(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFig9Cost(b *testing.B)             { benchFigure(b, "fig9") }
func BenchmarkFig10Video(b *testing.B)           { benchFigure(b, "fig10") }
func BenchmarkReactiveShare(b *testing.B)        { benchFigure(b, "drops") }

// benchSPECTrace returns the SPEC system's matrix and trial 0's trace of a
// scenario of the given shape: what every iteration of a single-trial
// benchmark replays.
func benchSPECTrace(b *testing.B, tasks int, window taskdrop.Tick, seed int64) (*taskdrop.Matrix, *taskdrop.Trace) {
	b.Helper()
	sc, err := taskdrop.NewScenario("spec", taskdrop.WithTasks(tasks), taskdrop.WithWindow(window), taskdrop.WithSeed(seed))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sc.Trace(0)
	if err != nil {
		b.Fatal(err)
	}
	return sc.Matrix(), tr
}

// benchTrial runs the trace once under registry-named policies, resolved
// per run as a scenario trial resolves them.
func benchTrial(b *testing.B, m *taskdrop.Matrix, tr *taskdrop.Trace, mapperSpec, dropperSpec string) *taskdrop.Result {
	b.Helper()
	mapper, err := taskdrop.NewMapper(mapperSpec)
	if err != nil {
		b.Fatal(err)
	}
	dropper, err := taskdrop.NewDropper(dropperSpec)
	if err != nil {
		b.Fatal(err)
	}
	return sim.New(m, tr, mapper, dropper, sim.DefaultConfig()).Run()
}

// BenchmarkEngineThroughput measures raw simulated tasks per second for
// the paper's flagship combination (PAM + Heuristic) on the SPEC system.
func BenchmarkEngineThroughput(b *testing.B) {
	m, tr := benchSPECTrace(b, 2000, 13000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchTrial(b, m, tr, "PAM", "heuristic")
		if err := res.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// benchDecide measures a single dropping decision over a representative
// full queue.
func benchDecide(b *testing.B, policy core.Policy) {
	b.Helper()
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	calc := core.NewCalculus(m)
	queue := []core.QueueTask{
		{Type: 0, Deadline: 400, Running: true, Elapsed: 30},
		{Type: 3, Deadline: 350},
		{Type: 7, Deadline: 420},
		{Type: 1, Deadline: 380},
		{Type: 9, Deadline: 500},
		{Type: 5, Deadline: 460},
	}
	ctx := &core.Context{Calc: calc, Machine: 2, Now: 100, Queue: queue, BatchPressure: 1.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Recycle per iteration: each op is one cold decision, as at a
		// fresh mapping event (without this, iterations after the first
		// would measure pure chain-cache hits).
		calc.Recycle()
		_ = policy.Decide(ctx)
	}
}

func BenchmarkDecideHeuristic(b *testing.B) { benchDecide(b, core.NewHeuristic()) }
func BenchmarkDecideOptimal(b *testing.B)   { benchDecide(b, core.Optimal{}) }
func BenchmarkDecideThreshold(b *testing.B) { benchDecide(b, core.NewThreshold()) }

// BenchmarkMapperStep measures one full PAM mapping pass over a loaded
// batch (25 unmapped tasks, one free slot per machine).
func BenchmarkMapperStep(b *testing.B) {
	m, tr := benchSPECTrace(b, 1000, 6500, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrial(b, m, tr, "MinMin", "reactdrop")
	}
}

// timedMapper runs the benchmark clock only inside the wrapped mapper's
// Map calls that have exactly one slot to fill — the mapping event that
// follows a completion in a full system — and counts them.
type timedMapper struct {
	sim.Mapper
	b   *testing.B
	ops int
}

func (m *timedMapper) Map(ev *sim.MappingEvent) {
	free := 0
	for _, mc := range ev.Machines() {
		free += ev.FreeSlots(mc)
	}
	if free != 1 {
		m.Mapper.Map(ev)
		return
	}
	m.ops++
	m.b.StartTimer()
	m.Mapper.Map(ev)
	m.b.StopTimer()
}

// BenchmarkPAMMapEvent measures one PAM mapping event in the regime the
// mapper's cost is made in: every SPEC queue full, a batch of 64 or 256
// unmapped tasks waiting, and one completion freeing one slot. One engine
// is held in that oversubscribed steady state — the batch is topped back
// up at the current clock before every completion fires — and each op is
// one PAM.Map over it (candidate bounds, the convolutions that survive
// them, the commit).
func BenchmarkPAMMapEvent(b *testing.B) {
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	pool := workload.Generate(m, workload.Config{TotalTasks: 4096, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack}, 1).Tasks
	for _, batch := range []int{64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.StopTimer()
			tm := &timedMapper{Mapper: mapping.PAM{}, b: b}
			eng := sim.NewOpen(m, tm, core.ReactiveOnly{}, sim.DefaultConfig())
			fed := 0
			for tm.ops < b.N {
				for eng.LiveCounts().Batch < batch {
					t := pool[fed%len(pool)]
					t.ID, t.Arrival, t.Deadline = fed, eng.Now(), eng.Now()+t.Deadline-t.Arrival
					fed++
					eng.Feed(&t)
				}
				next := pmf.Tick(-1)
				for _, mc := range eng.Machines() {
					if !mc.Running() {
						continue
					}
					head := mc.Queue()[0]
					if at := head.Start + head.Task.ExecByType[mc.Type()]; next < 0 || at < next {
						next = at
					}
				}
				if next < 0 {
					b.Fatal("no machine is running in an oversubscribed system")
				}
				eng.AdvanceTo(next)
			}
		})
	}
}

// Ablation: compaction budget. DESIGN.md calls out the impulse budget as
// the accuracy/speed lever of the calculus; this bench quantifies the
// speed side (EXPERIMENTS.md records the accuracy side).
func BenchmarkAblationCompactionBudget(b *testing.B) {
	for _, budget := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
			calc := core.NewCalculus(m)
			calc.MaxImpulses = budget
			queue := []core.QueueTask{
				{Type: 0, Deadline: 400, Running: true, Elapsed: 30},
				{Type: 3, Deadline: 350},
				{Type: 7, Deadline: 420},
				{Type: 1, Deadline: 380},
				{Type: 9, Deadline: 500},
				{Type: 5, Deadline: 460},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				calc.Recycle()
				_ = calc.SuccessProbs(2, 100, queue)
			}
		})
	}
}

// Ablation: effective depth η — per-decision cost growth.
func BenchmarkAblationEta(b *testing.B) {
	for eta := 1; eta <= 5; eta++ {
		b.Run(fmt.Sprintf("eta=%d", eta), func(b *testing.B) {
			benchDecide(b, core.Heuristic{Beta: 1, Eta: eta})
		})
	}
}

// BenchmarkWorkloadGeneration measures trace construction (Poisson
// arrivals + per-machine-type Gamma draws).
func BenchmarkWorkloadGeneration(b *testing.B) {
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	cfg := workload.Config{TotalTasks: 5000, Window: 32500, GammaSlack: workload.DefaultGammaSlack}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = workload.Generate(m, cfg, int64(i))
	}
}

// BenchmarkQueueChain measures the completion-time chain over a full
// six-slot queue — the innermost loop of every dropper and mapper.
func BenchmarkQueueChain(b *testing.B) {
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	calc := core.NewCalculus(m)
	queue := []core.QueueTask{
		{Type: 0, Deadline: 400, Running: true, Elapsed: 30},
		{Type: 3, Deadline: 350},
		{Type: 7, Deadline: 420},
		{Type: 1, Deadline: 380},
		{Type: 9, Deadline: 500},
		{Type: 5, Deadline: 460},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.Recycle()
		_ = calc.CompletionPMFs(2, 100, queue)
	}
}

var sinkPMF pmf.PMF

// BenchmarkEq1 measures a single deadline-truncated convolution (Eq. 1)
// through the workspace path used in production.
func BenchmarkEq1(b *testing.B) {
	m := pet.Build(pet.SPECProfile(pet.DefaultProfileSeed), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	calc := core.NewCalculus(m)
	prev := m.ExecPMF(0, 0).Shift(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.Recycle()
		sinkPMF = calc.Append(prev, 3, 450, 0)
	}
}
