package sim_test

import (
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// exhaustiveHeuristic is Fig. 4 / Eq. 8 at the paper's tuning written
// against the calculus' public API alone, convolving the keep and the drop
// scenario of every candidate. core.Heuristic settles most verdicts from
// the kept window and never evaluates their drop scenarios; this is the
// policy it must be indistinguishable from over a whole run. (External
// test package: PAM lives in internal/mapping, which imports sim.)
type exhaustiveHeuristic struct{}

func (exhaustiveHeuristic) Name() string { return "ExhaustiveHeuristic" }

func (exhaustiveHeuristic) Decide(ctx *core.Context) []int {
	const beta, eta = core.DefaultBeta, core.DefaultEta
	prev, first := ctx.ChainStart()
	var work []core.QueueTask
	var orig []int
	for i := first; i < len(ctx.Queue); i++ {
		work, orig = append(work, ctx.Queue[i]), append(orig, i)
	}
	// window sums the chance of success of the first n tasks chained
	// behind s, and returns the state after the first of them.
	window := func(s core.ChainState, tasks []core.QueueTask, n int) (sum float64, head core.ChainState) {
		for k := 0; k < n && k < len(tasks); k++ {
			s = s.Append(tasks[k].Type, tasks[k].Deadline)
			if k == 0 {
				head = s
			}
			sum += s.PMF().MassBefore(tasks[k].Deadline)
		}
		return sum, head
	}
	var drops []int
	for i := 0; i < len(work)-1; {
		w := min(eta, len(work)-1-i)
		keep, head := window(prev, work[i:], w+1)
		drop, _ := window(prev, work[i+1:], w)
		if drop > beta*keep {
			drops = append(drops, orig[i])
			work, orig = append(work[:i], work[i+1:]...), append(orig[:i], orig[i+1:]...)
			continue
		}
		prev = head
		i++
	}
	return drops
}

// TestHeuristicBoundMatchesExhaustiveRun: a 3 000-task oversubscribed trace
// per profile under PAM and a six-slot queue ends, task for task, in the
// same terminal status at the same tick whether Eq. 8 is decided from the
// bound where possible or always evaluated in full.
func TestHeuristicBoundMatchesExhaustiveRun(t *testing.T) {
	for _, p := range []struct {
		name    string
		profile pet.Profile
	}{
		{"spec", pet.SPECProfile(pet.DefaultProfileSeed)},
		{"video", pet.VideoProfile()},
	} {
		t.Run(p.name, func(t *testing.T) {
			m := pet.Build(p.profile, pet.DefaultProfileSeed, pet.DefaultBuildOptions())
			tr := workload.Generate(m, workload.Config{
				TotalTasks: 30000, Window: workload.StandardWindow, GammaSlack: workload.DefaultGammaSlack,
			}.Scaled(0.1), 1)
			run := func(dropper core.Policy) (*sim.Engine, []sim.TaskState, *sim.Result) {
				e := sim.New(m, tr, mapping.PAM{}, dropper, sim.DefaultConfig())
				rec := sim.Record(e)
				res := e.Run()
				return e, rec.TaskStates(), res
			}
			ref, ws, want := run(exhaustiveHeuristic{})
			eng, gs, got := run(core.NewHeuristic())
			if *got != *want {
				t.Fatalf("results differ:\n got %+v\nwant %+v", got, want)
			}
			if len(gs) != 3000 || len(ws) != len(gs) {
				t.Fatalf("%d and %d task states, want 3000 each", len(gs), len(ws))
			}
			for i := range gs {
				if gs[i].Status != ws[i].Status || gs[i].Finish != ws[i].Finish {
					t.Fatalf("task %d: status %v finish %d, exhaustive walk %v / %d",
						gs[i].Task.ID, gs[i].Status, gs[i].Finish, ws[i].Status, ws[i].Finish)
				}
			}
			st := eng.Calc().Stats()
			if st.WindowsBounded == 0 || st.WindowsEvaluated == 0 || want.DroppedProactive == 0 {
				t.Fatalf("vacuous: %d verdicts bounded, %d evaluated, %d proactive drops",
					st.WindowsBounded, st.WindowsEvaluated, want.DroppedProactive)
			}
			if rs := ref.Calc().Stats(); st.ChainMisses >= rs.ChainMisses {
				t.Fatalf("bounded walk convolved %d chain links, the exhaustive one %d", st.ChainMisses, rs.ChainMisses)
			}
		})
	}
}
