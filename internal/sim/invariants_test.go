package sim

import (
	"math/rand"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// TestEngineInvariantSweep drives the engine through a randomized
// configuration space — profiles, queue bounds, droppers, grace windows,
// failure intensities, strict Fig. 4 semantics — and checks the invariants
// that must hold regardless:
//
//   - every task reaches exactly one terminal state (conservation);
//   - on-time tasks finished strictly before their deadline, late ones at
//     or after it, and both started strictly before deadline+grace;
//   - no task is marked proactively dropped unless a proactive policy ran;
//   - executed tasks carry a valid machine index, never-started ones −1;
//   - identical configurations replay identically.
func TestEngineInvariantSweep(t *testing.T) {
	profiles := []pet.Profile{pet.VideoProfile(), pet.HomogeneousProfile(), pet.SPECProfile(3)}
	matrices := make([]*pet.Matrix, len(profiles))
	for i, p := range profiles {
		matrices[i] = pet.Build(p, int64(i+1), pet.BuildOptions{SamplesPerCell: 120, BinsPerPMF: 12})
	}
	droppers := []core.Policy{
		nil,
		core.ReactiveOnly{},
		core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta},
		core.Heuristic{Beta: 1.5, Eta: 1},
		core.Optimal{},
		core.Threshold{Base: core.DefaultThresholdBase, Adaptive: true},
		core.ApproxHeuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta},
	}

	r := rand.New(rand.NewSource(99))
	const cases = 40
	for i := 0; i < cases; i++ {
		m := matrices[r.Intn(len(matrices))]
		dropper := droppers[r.Intn(len(droppers))]
		cfg := DefaultConfig()
		cfg.QueueCap = 1 + r.Intn(8)
		cfg.BoundaryExclusion = r.Intn(20)
		cfg.DropOnArrival = r.Intn(2) == 0
		if r.Intn(3) == 0 {
			cfg.ReactiveGrace = pmf.Tick(r.Intn(200))
		}
		if _, ok := dropper.(core.ApproxHeuristic); ok && cfg.ReactiveGrace == 0 {
			cfg.ReactiveGrace = 80 // approx values late completions by the engine's grace alone
		}
		if r.Intn(3) == 0 {
			cfg.Failures = FailureConfig{
				MTBF:       pmf.Tick(200 + r.Intn(2000)),
				MeanRepair: pmf.Tick(20 + r.Intn(200)),
				Seed:       int64(i),
			}
		}
		wl := workload.Config{
			TotalTasks: 150 + r.Intn(250),
			Window:     pmf.Tick(800 + r.Intn(2500)),
			GammaSlack: 0.5 + 3*r.Float64(),
		}
		tr := workload.Generate(m, wl, int64(i))

		e := New(m, tr, fifoMapper{}, dropper, cfg)
		rec := Record(e)
		res := e.Run()
		if err := res.Validate(); err != nil {
			t.Fatalf("case %d (%+v): %v", i, cfg, err)
		}

		proactivePolicy := dropper != nil
		if _, isReactive := dropper.(core.ReactiveOnly); isReactive || dropper == nil {
			proactivePolicy = false
		}
		for _, ts := range rec.TaskStates() {
			dl := ts.Task.Deadline
			switch ts.Status {
			case StatusCompletedOnTime:
				if ts.Finish >= dl {
					t.Fatalf("case %d: on-time task %d finished at %d, deadline %d", i, ts.Task.ID, ts.Finish, dl)
				}
			case StatusCompletedLate:
				if ts.Finish < dl {
					t.Fatalf("case %d: late task %d finished at %d before deadline %d", i, ts.Task.ID, ts.Finish, dl)
				}
			case StatusDroppedProactive:
				if !proactivePolicy {
					t.Fatalf("case %d: proactive drop without a proactive policy", i)
				}
			case StatusDroppedReactive, StatusFailed:
				// no timing claim
			default:
				t.Fatalf("case %d: task %d non-terminal status %v", i, ts.Task.ID, ts.Status)
			}
			executed := ts.Status == StatusCompletedOnTime || ts.Status == StatusCompletedLate || ts.Status == StatusFailed
			if executed {
				if ts.Machine < 0 || ts.Machine >= len(m.Machines()) {
					t.Fatalf("case %d: executed task %d has machine %d", i, ts.Task.ID, ts.Machine)
				}
				if ts.Start >= dl+cfg.ReactiveGrace {
					t.Fatalf("case %d: task %d started at %d, cutoff %d", i, ts.Task.ID, ts.Start, dl+cfg.ReactiveGrace)
				}
			}
		}

		// Replay determinism.
		res2 := New(m, tr, fifoMapper{}, dropper, cfg).Run()
		if *res != *res2 {
			t.Fatalf("case %d not deterministic:\n%+v\n%+v", i, res, res2)
		}
	}
}

// TestDropOnArrivalDiffersOnlyInProactivity verifies the strict Fig. 4
// mode is a pure superset of dropping opportunities: it may change which
// tasks get dropped, but conservation and on-time semantics are identical,
// and with a reactive-only dropper the mode is a no-op.
func TestDropOnArrivalDiffersOnlyInProactivity(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 120, BinsPerPMF: 12})
	tr := workload.Generate(m, workload.Config{TotalTasks: 400, Window: 2500, GammaSlack: 2}, 77)

	base := DefaultConfig()
	strict := DefaultConfig()
	strict.DropOnArrival = true

	a := New(m, tr, fifoMapper{}, core.ReactiveOnly{}, base).Run()
	b := New(m, tr, fifoMapper{}, core.ReactiveOnly{}, strict).Run()
	if *a != *b {
		t.Fatalf("DropOnArrival changed a reactive-only run:\n%+v\n%+v", a, b)
	}

	c := New(m, tr, fifoMapper{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, strict).Run()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
