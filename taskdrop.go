// Package taskdrop is a Go reproduction of "Autonomous Task Dropping
// Mechanism to Achieve Robustness in Heterogeneous Computing Systems"
// (Mokhtari, Denninnart, Amini Salehi; IPDPS Workshops 2020,
// arXiv:2005.11050).
//
// It provides, end to end:
//
//   - a probabilistic execution-time (PET) model over discrete PMFs and the
//     completion-time calculus of the paper (Eq. 1–3);
//   - the autonomous proactive task-dropping heuristic (η, β), the optimal
//     subset-enumeration dropper, and the threshold baseline of prior work;
//   - a deterministic discrete-event simulator of the paper's batch-mode
//     resource allocation system (bounded machine queues, reactive drops,
//     mapping events);
//   - the mapping heuristics of the evaluation (MinMin, MSD, PAM, FCFS,
//     SJF, EDF and several classic extras);
//   - workload profiles (SPECint-like inconsistent HC system, video
//     transcoding, homogeneous cluster) and Poisson trace generation;
//   - a concurrent, cancellable Scenario API for repeated-trial
//     experiments, and a declarative Sweep API expanding axis grids into
//     paired scenarios with paired-difference statistics — the form in
//     which every figure of §V is declared;
//   - a sharded cluster architecture (WithShards / WithRouter, the
//     Shards and Routers sweep axes, hcserve -shards): machines
//     partition into shard-scoped engines behind pluggable routing
//     policies (round-robin, power-of-two-choices over per-class
//     robustness estimates, task-class hashing), multiplying decision
//     throughput while preserving the calculus — pruning is shard-local
//     by construction.
//
// # Quick start
//
// The unit of experimentation is a Scenario: one (profile, mapper,
// dropper, workload) combination run for N seeded trials across a worker
// pool, reported as mean ± 95% CI — the paper evaluates everything this
// way (§V-A):
//
//	sc, err := taskdrop.NewScenario("spec",
//		taskdrop.WithMapper("PAM"),
//		taskdrop.WithDropper("heuristic:beta=1,eta=2"),
//		taskdrop.WithTasks(30000),
//		taskdrop.WithTrials(30),
//	)
//	if err != nil { ... }
//	rr, err := sc.Run(context.Background())
//	if err != nil { ... }
//	fmt.Printf("robustness: %s %%\n", rr.Summary.Robustness)
//
// Trials are paired: two scenarios differing only in policy see identical
// arrivals, so their difference is the policy's effect. Run is
// deterministic for a fixed seed regardless of WithWorkers, and stops
// promptly when its context is cancelled. Stream delivers per-trial
// results incrementally; OnTrialDone hooks progress reporting.
//
// Mappers, dropping policies and profiles are resolved through unified
// string registries with a shared parameterized spec grammar
// ("threshold:base=0.3,adaptive" — see NewMapper, NewDropper, NewProfile),
// so CLI flags, experiment figure definitions and API calls all name
// combinations the same way. Custom Mapper and DropPolicy implementations
// plug in through WithMapperImpl and WithDropperPolicy.
//
// # Sweeps
//
// Whole experiment grids are declared with NewSweep: axes (Profiles,
// Mappers, Droppers, Tasks, …) expand into a cross product of scenarios
// that share trace generation by construction, run over one worker pool,
// and — with a Baseline designated — report every cell as a paired mean
// difference with a paired 95% CI, the correct analysis for comparisons
// on identical traces:
//
//	sw, err := taskdrop.NewSweep(
//		taskdrop.Droppers("heuristic", "reactdrop"),
//		taskdrop.Tasks(20000, 30000, 40000),
//		taskdrop.SweepTrials(30),
//		taskdrop.Baseline("reactdrop"),
//	)
//	if err != nil { ... }
//	res, err := sw.Run(ctx)
//	if err != nil { ... }
//	res.Table().Fprint(os.Stdout)
//
// SweepResult renders itself (Table, CSV, JSON, Pivot); every figure of
// the paper's evaluation (internal/expt, cmd/hcexp) is such a declaration.
//
// The deeper APIs live in the internal packages and are re-exported here
// through type aliases, so the whole system is scriptable from this single
// import.
package taskdrop

import (
	"io"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/runner"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/stats"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Aliases of the core model types, so callers need only this package.
type (
	// Tick is one point of the discrete time grid (1 ms).
	Tick = pmf.Tick
	// PMF is a discrete probability mass function over Ticks.
	PMF = pmf.PMF
	// Impulse is one (time, probability) mass point of a PMF.
	Impulse = pmf.Impulse
	// Profile declares an HC system (task types × machine types, means,
	// machine counts, prices).
	Profile = pet.Profile
	// Matrix is a built PET matrix.
	Matrix = pet.Matrix
	// TaskType indexes PET rows; MachineType indexes PET columns.
	TaskType = pet.TaskType
	// MachineType indexes PET columns.
	MachineType = pet.MachineType
	// WorkloadConfig parameterizes trace generation.
	WorkloadConfig = workload.Config
	// Trace is a generated arrival sequence.
	Trace = workload.Trace
	// Task is one arriving task of a trace.
	Task = workload.Task
	// Result summarizes one simulated trial.
	Result = sim.Result
	// Summary is the mean ± 95% CI aggregation of a scenario's trials.
	Summary = runner.Aggregate
	// StatSummary is one mean ± 95% CI statistic within a Summary.
	StatSummary = stats.Summary
	// SimConfig tunes the simulation engine.
	SimConfig = sim.Config
	// FailureConfig enables machine failure injection (see WithFailures).
	FailureConfig = sim.FailureConfig
	// ChurnConfig enables machine churn injection — runtime membership
	// change (see WithChurn).
	ChurnConfig = sim.ChurnConfig
	// ChurnEvent is one timed membership change of a generated churn plan.
	ChurnEvent = sim.ChurnEvent
	// Engine is the single-trial simulation engine (see Scenario.Engine).
	Engine = sim.Engine
	// Recorder collects the per-task records an Engine lets go of as
	// tasks settle (see Record).
	Recorder = sim.Recorder
	// TypeBreakdown is Recorder.Breakdown's per-task-type statistics.
	TypeBreakdown = sim.TypeBreakdown
	// MachineBreakdown is Recorder.Breakdown's per-machine statistics.
	MachineBreakdown = sim.MachineBreakdown
	// Mapper assigns batch tasks to machine queues.
	Mapper = sim.Mapper
	// MappingEvent is a Mapper's window onto the system at one event.
	MappingEvent = sim.MappingEvent
	// Machine is one simulated machine with its bounded queue.
	Machine = sim.Machine
	// MachineSpec describes a physical machine (type, name, price).
	MachineSpec = pet.MachineSpec
	// TaskState is the simulator's record of one task.
	TaskState = sim.TaskState
	// QueueTask is the calculus' view of one queue entry.
	QueueTask = core.QueueTask
	// DropPolicy decides proactive drops per machine queue.
	DropPolicy = core.Policy
	// DropContext carries the state a DropPolicy consults.
	DropContext = core.Context
	// Calculus evaluates completion-time PMFs and chances of success.
	Calculus = core.Calculus
	// CalcStats is a snapshot of a Calculus' introspection counters.
	CalcStats = core.CalcStats
	// RouterPolicy picks the admission shard for each arriving task of a
	// sharded cluster (see WithShards / WithRouter / NewRouter).
	RouterPolicy = router.Policy
	// ShardView is the lock-free state a RouterPolicy consults per shard.
	ShardView = router.ShardView
	// Cluster is a set of shard-scoped engines behind a routing policy.
	Cluster = sim.Cluster
)

// Workload and tuning constants of the paper's evaluation.
const (
	// StandardWindow is the arrival window of the standard workloads.
	StandardWindow = workload.StandardWindow
	// DefaultGammaSlack is the deadline slack coefficient γ.
	DefaultGammaSlack = workload.DefaultGammaSlack
	// DefaultEta is the tuned effective depth η = 2 (§V-C).
	DefaultEta = core.DefaultEta
	// DefaultBeta is the tuned robustness improvement factor β = 1 (§V-D).
	DefaultBeta = core.DefaultBeta
)

// HeuristicDropper returns the paper's autonomous proactive dropping
// heuristic with the tuned parameters η=2, β=1.
func HeuristicDropper() DropPolicy { return core.NewHeuristic() }

// HeuristicDropperWith returns the heuristic with explicit β ≥ 1 and
// η ≥ 1.
func HeuristicDropperWith(beta float64, eta int) DropPolicy {
	return core.Heuristic{Beta: beta, Eta: eta}
}

// OptimalDropper returns the optimal subset-enumeration dropper (§IV-D).
func OptimalDropper() DropPolicy { return core.Optimal{} }

// ThresholdDropper returns the prior-work baseline: prune tasks whose
// chance of success falls below base, adapted to load when adaptive.
func ThresholdDropper(base float64, adaptive bool) DropPolicy {
	return core.Threshold{Base: base, Adaptive: adaptive}
}

// ReactiveDropper returns the no-proactive-dropping baseline.
func ReactiveDropper() DropPolicy { return core.ReactiveOnly{} }

// SPECProfile, VideoProfile and HomogeneousProfile re-export the raw
// profile constructors.
func SPECProfile(seed int64) Profile { return pet.SPECProfile(seed) }

// VideoProfile returns the video transcoding profile.
func VideoProfile() Profile { return pet.VideoProfile() }

// HomogeneousProfile returns the homogeneous cluster profile.
func HomogeneousProfile() Profile { return pet.HomogeneousProfile() }

// NewCalculus exposes the completion-time calculus over a system's PET for
// callers building custom mappers or droppers. The calculus is not safe
// for concurrent use.
func NewCalculus(m *Matrix) *Calculus { return core.NewCalculus(m) }

// Record subscribes a new Recorder to the engine's terminal hook; call it
// before the engine runs.
func Record(e *Engine) *Recorder { return sim.Record(e) }

// FprintBreakdown renders Recorder.Breakdown's per-type and per-machine
// statistics as aligned text.
func FprintBreakdown(w io.Writer, types []TypeBreakdown, machines []MachineBreakdown) {
	sim.FprintBreakdown(w, types, machines)
}
