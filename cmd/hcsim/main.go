// Command hcsim runs one scenario of the heterogeneous computing system —
// a (profile, mapper, dropper, workload) combination over one or more
// seeded trials — and prints its metrics. It is the quickest way to poke
// at a combination:
//
//	hcsim -profile spec -mapper PAM -dropper heuristic -tasks 30000
//	hcsim -dropper "heuristic:beta=1.5,eta=3" -trials 10
//	hcsim -dropper "threshold:base=0.3,adaptive" -mapper kpb:percent=30
//
// Components are named by the unified registry specs of the taskdrop
// package (see taskdrop.NewMapper, NewDropper, NewProfile), so every
// parameterized form accepted by the API works on the command line too.
// For the full paper experiments use cmd/hcexp.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	taskdrop "github.com/hpcclab/taskdrop"
	"github.com/hpcclab/taskdrop/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hcsim: ")

	var (
		profileSpec = flag.String("profile", "spec", "system profile spec: spec | video | homog (e.g. spec:seed=7)")
		mapperSpec  = flag.String("mapper", "PAM", "mapping heuristic spec (MinMin, MSD, PAM, FCFS, SJF, EDF, kpb:percent=30, ...)")
		dropperSpec = flag.String("dropper", "heuristic", "dropping policy spec: reactdrop | heuristic[:beta=..,eta=..] | optimal | threshold[:base=..,adaptive] | approx[:grace=..]")
		tasks       = flag.Int("tasks", 30000, "number of arriving tasks per trial (oversubscription level)")
		window      = flag.Int64("window", int64(taskdrop.StandardWindow), "arrival window in ms")
		gamma       = flag.Float64("gamma", taskdrop.DefaultGammaSlack, "deadline slack coefficient γ")
		seed        = flag.Int64("seed", 1, "base workload seed; trial t uses seed+t")
		trials      = flag.Int("trials", 1, "seeded trials to run (mean ± 95% CI is printed when > 1)")
		workers     = flag.Int("workers", 0, "parallel trial simulations (0 = GOMAXPROCS)")
		queueCap    = flag.Int("queue", 6, "machine queue capacity incl. running task")
		scale       = flag.Float64("scale", 1.0, "shrink factor in (0,1]: scales tasks and window together")
		verbose     = flag.Bool("v", false, "print the PET summary before running")
		breakdown   = flag.Bool("breakdown", false, "print per-task-type and per-machine statistics (trial 0)")
		progress    = flag.Bool("progress", false, "print one line per completed trial")
		mtbf        = flag.Int64("mtbf", 0, "machine mean time between failures in ms (0 = no failure injection)")
		repair      = flag.Int64("repair", 0, "mean repair time in ms (default mtbf/10)")
	)
	flag.Parse()

	if err := workload.CheckScale(*scale); err != nil {
		log.Fatalf("-scale: %v", err)
	}
	cfg := taskdrop.WorkloadConfig{TotalTasks: *tasks, Window: taskdrop.Tick(*window), GammaSlack: *gamma}
	if *scale != 1.0 {
		cfg = cfg.Scaled(*scale)
	}
	opts := []taskdrop.ScenarioOption{
		taskdrop.WithMapper(*mapperSpec),
		taskdrop.WithDropper(*dropperSpec),
		taskdrop.WithTasks(cfg.TotalTasks),
		taskdrop.WithWindow(cfg.Window),
		taskdrop.WithGamma(cfg.GammaSlack),
		taskdrop.WithSeed(*seed),
		taskdrop.WithTrials(*trials),
		taskdrop.WithWorkers(*workers),
		taskdrop.WithQueueCap(*queueCap),
	}
	if *mtbf > 0 {
		rep := *repair
		if rep <= 0 {
			rep = *mtbf / 10
		}
		opts = append(opts, taskdrop.WithFailures(taskdrop.FailureConfig{
			MTBF: taskdrop.Tick(*mtbf), MeanRepair: taskdrop.Tick(rep), Seed: *seed,
		}))
	}
	if *progress {
		opts = append(opts, taskdrop.OnTrialDone(func(trial int, res *taskdrop.Result) {
			fmt.Fprintf(os.Stderr, "trial %2d  robustness %6.2f %%\n", trial, res.RobustnessPct)
		}))
	}

	sc, err := taskdrop.NewScenario(*profileSpec, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		printPET(sc.Matrix())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -breakdown, trial 0 runs through an engine of its own with a
	// recorder subscribed (an engine keeps no per-task records itself); for
	// a single-trial scenario that engine run IS the result (no
	// re-simulation).
	var eng *taskdrop.Engine
	var rec *taskdrop.Recorder
	if *breakdown {
		if eng, err = sc.Engine(0); err != nil {
			log.Fatal(err)
		}
		rec = taskdrop.Record(eng)
	}

	start := time.Now()
	var single *taskdrop.Result
	var summary taskdrop.Summary
	var calc taskdrop.CalcStats
	switch {
	case eng != nil && *trials == 1 && !*progress:
		if single, err = eng.RunContext(ctx); err != nil {
			log.Fatal(err)
		}
		calc = eng.Calc().Stats()
	default:
		rr, err := sc.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		single, summary, calc = rr.Trials[0], rr.Summary, rr.Calc
		if eng != nil {
			if _, err := eng.RunContext(ctx); err != nil {
				log.Fatal(err)
			}
		}
	}
	elapsed := time.Since(start)
	if err := single.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("profile=%s mapper=%s dropper=%s tasks=%d window=%dms gamma=%.2f seed=%d trials=%d\n",
		*profileSpec, *mapperSpec, *dropperSpec, cfg.TotalTasks, cfg.Window, cfg.GammaSlack, *seed, *trials)
	if *trials > 1 {
		printSummary(summary)
	} else {
		printTrial(single)
	}
	if n := calc.CandidatesEvaluated + calc.CandidatesPruned; n > 0 {
		fmt.Printf("mapper candidates     %d evaluated, %d pruned (%.1f %% ruled out unconvolved)\n",
			calc.CandidatesEvaluated, calc.CandidatesPruned, 100*float64(calc.CandidatesPruned)/float64(n))
	}
	if n := calc.WindowsBounded + calc.WindowsEvaluated; n > 0 {
		fmt.Printf("dropper windows       %d bounded, %d evaluated (%.1f %% settled by the bound)\n",
			calc.WindowsBounded, calc.WindowsEvaluated, 100*float64(calc.WindowsBounded)/float64(n))
	}
	fmt.Printf("wall clock            %s\n", elapsed.Round(time.Millisecond))

	if rec != nil {
		fmt.Println()
		types, machines := rec.Breakdown()
		taskdrop.FprintBreakdown(os.Stdout, types, machines)
	}
	_ = os.Stdout.Sync()
}

// printTrial renders the detailed metrics of a single trial.
func printTrial(res *taskdrop.Result) {
	fmt.Printf("robustness            %6.2f %% of measured tasks completed on time\n", res.RobustnessPct)
	fmt.Printf("measured window       %d tasks (of %d total)\n", res.Measured, res.Total)
	fmt.Printf("completed on time     %d\n", res.MOnTime)
	fmt.Printf("completed late        %d\n", res.MLate)
	fmt.Printf("dropped reactively    %d\n", res.MDroppedReactive)
	fmt.Printf("dropped proactively   %d\n", res.MDroppedProactive)
	fmt.Printf("reactive drop share   %.1f %% of all drops\n", 100*res.DropReactiveShare())
	fmt.Printf("total cost            $%.4f\n", res.TotalCostUSD)
	fmt.Printf("cost / robustness     %.6f $/%%\n", res.CostPerRobustness)
	fmt.Printf("makespan              %.1f s   utilization %.1f %%\n", float64(res.Makespan)/1000, res.UtilizationPct)
	if res.Failed > 0 {
		fmt.Printf("killed by failures    %d\n", res.MFailed)
	}
}

// printSummary renders the aggregated mean ± 95% CI metrics.
func printSummary(s taskdrop.Summary) {
	fmt.Printf("robustness            %s %% of measured tasks completed on time\n", s.Robustness)
	fmt.Printf("norm. cost            %s $/1000·%%\n", s.NormCost)
	fmt.Printf("proactive dropped     %s %% of measured tasks\n", s.ProactivePct)
	fmt.Printf("reactive dropped      %s %% of measured tasks\n", s.ReactivePct)
	fmt.Printf("reactive drop share   %s %% of all drops\n", s.ReactiveShare)
}

func printPET(m *taskdrop.Matrix) {
	p := m.Profile()
	fmt.Printf("PET matrix %q: %d task types × %d machine types (mean ms)\n",
		p.Name, m.NumTaskTypes(), m.NumMachineTypes())
	for i := 0; i < m.NumTaskTypes(); i++ {
		fmt.Printf("  %-18s", p.TaskTypeNames[i])
		for j := 0; j < m.NumMachineTypes(); j++ {
			fmt.Printf(" %7.1f", m.CellMean(taskdrop.TaskType(i), taskdrop.MachineType(j)))
		}
		fmt.Println()
	}
	fmt.Printf("  avg_all = %.1f ms, machines = %d\n", m.MeanAll(), len(m.Machines()))
}
