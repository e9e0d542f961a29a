package taskdrop_test

import (
	"context"
	"fmt"

	taskdrop "github.com/hpcclab/taskdrop"
)

// ExampleNewScenario runs the paper's comparison discipline end to end:
// two scenarios differing only in dropping policy, sharing a base seed so
// every trial is paired on identical arrivals, aggregated as mean ± 95%
// CI over trials.
func ExampleNewScenario() {
	run := func(dropper string) *taskdrop.RunResult {
		sc, err := taskdrop.NewScenario("video",
			taskdrop.WithMapper("PAM"),
			taskdrop.WithDropper(dropper),
			taskdrop.WithTasks(500),
			taskdrop.WithWindow(3000),
			taskdrop.WithTrials(3),
			taskdrop.WithSeed(42),
		)
		if err != nil {
			panic(err)
		}
		rr, err := sc.Run(context.Background())
		if err != nil {
			panic(err)
		}
		return rr
	}
	with := run("heuristic:beta=1,eta=2")
	without := run("reactdrop")
	fmt.Println("trials:", with.Summary.Robustness.N)
	fmt.Println("proactive dropping helps:", with.Summary.Robustness.Mean > without.Summary.Robustness.Mean)
	// Output:
	// trials: 3
	// proactive dropping helps: true
}

// ExampleNewSweep declares the paper's headline comparison as a grid:
// dropping policy × oversubscription level, every cell paired on
// identical traces, with the no-proactive-dropping baseline designated so
// each policy cell carries a paired-difference CI — the statistically
// tight way to report "how much does dropping help".
func ExampleNewSweep() {
	sw, err := taskdrop.NewSweep(
		taskdrop.Profiles("video"),
		taskdrop.Mappers("PAM"),
		taskdrop.Droppers("heuristic:beta=1,eta=2", "reactdrop"),
		taskdrop.Tasks(400, 600),
		taskdrop.Each(taskdrop.WithWindow(3000)),
		taskdrop.SweepTrials(3),
		taskdrop.SweepSeed(42),
		taskdrop.Baseline("reactdrop"),
	)
	if err != nil {
		panic(err)
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("cells:", len(res.Cells))
	for _, level := range []string{"400", "600"} {
		cell, _ := res.Cell("Heuristic", level)
		d := cell.VsBaseline.Robustness
		fmt.Printf("@%s tasks: dropping helps (paired Δ > 0): %v\n", level, d.Mean > 0)
	}
	// Output:
	// cells: 4
	// @400 tasks: dropping helps (paired Δ > 0): true
	// @600 tasks: dropping helps (paired Δ > 0): true
}

// Example demonstrates the minimal end-to-end flow: one trial of an
// oversubscribed workload with and without the autonomous proactive
// dropping heuristic, on identical arrivals (same profile, shape and seed).
func Example() {
	robustness := func(dropper string) float64 {
		sc, err := taskdrop.NewScenario("video",
			taskdrop.WithMapper("PAM"),
			taskdrop.WithDropper(dropper),
			taskdrop.WithTasks(500),
			taskdrop.WithWindow(3000),
			taskdrop.WithSeed(42),
		)
		if err != nil {
			panic(err)
		}
		rr, err := sc.Run(context.Background())
		if err != nil {
			panic(err)
		}
		return rr.Trials[0].RobustnessPct
	}
	fmt.Println("proactive dropping helps:", robustness("heuristic") > robustness("reactdrop"))
	// Output:
	// proactive dropping helps: true
}

// ExampleScenario_Trace shows the deadline rule of §V-A: every task's
// deadline is its arrival plus its type's mean execution time plus
// γ × the grand mean.
func ExampleScenario_Trace() {
	sc, err := taskdrop.NewScenario("video",
		taskdrop.WithTasks(3), taskdrop.WithWindow(100), taskdrop.WithGamma(1.0), taskdrop.WithSeed(7))
	if err != nil {
		panic(err)
	}
	trace, err := sc.Trace(0)
	if err != nil {
		panic(err)
	}
	for _, task := range trace.Tasks {
		fmt.Println(task.Deadline > task.Arrival)
	}
	// Output:
	// true
	// true
	// true
}

// ExampleNewDropper tunes the heuristic's aggressiveness through its spec:
// β close to 1 drops on any improvement, larger β is more conservative
// (Fig. 6 of the paper).
func ExampleNewDropper() {
	conservative, err := taskdrop.NewDropper("heuristic:beta=2,eta=2")
	if err != nil {
		panic(err)
	}
	fmt.Println(conservative.Name())
	// Output:
	// Heuristic
}

// ExampleMapperNames lists the built-in mapping heuristics that can be
// passed to WithMapper.
func ExampleMapperNames() {
	names := taskdrop.MapperNames()
	fmt.Println(len(names) >= 6, names[0], names[2])
	// Output:
	// true MinMin PAM
}
