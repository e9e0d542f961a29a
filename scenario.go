package taskdrop

import (
	"context"
	"fmt"
	"sync"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/runner"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Scenario is a fully specified, repeatable experiment: one system
// profile, one mapper, one dropping policy and one workload shape,
// simulated for a number of seeded trials. Build it with NewScenario and
// execute it with Run (blocking, aggregated) or Stream (incremental).
//
// Trials are paired by construction: trial t always uses seed Seed+t for
// trace generation, so two scenarios differing only in policy see
// identical arrivals — the comparison discipline of the paper's
// evaluation (§V-A). Aggregation is in trial order, which makes a
// scenario's RunResult fully deterministic regardless of WithWorkers.
type Scenario struct {
	profileSpec string

	mapperSpec    string
	mapperSpecSet bool
	mapperImpl    Mapper
	mapperImplSet bool

	dropperSpec    string
	dropperSpecSet bool
	dropperImpl    DropPolicy
	dropperImplSet bool
	dropper        DropPolicy

	trials      int
	seed        int64
	tasks       int
	window      Tick
	gamma       float64
	queueCap    int
	grace       Tick
	failures    FailureConfig
	churn       ChurnConfig
	workers     int
	maxImpulses int
	shards      int
	routerSpec  string
	onTrial     func(trial int, res *Result)

	// genTrace, when set, replaces workload.Generate for trace creation —
	// the trace-pairing hook: a Sweep installs a shared memoizing generator
	// here so every cell with the same (profile, workload, seed) receives
	// the one trace instance, making pairing an object identity instead of
	// a happy accident of determinism.
	genTrace func(profileSpec string, m *Matrix, cfg workload.Config, seed int64) *workload.Trace

	buildOnce sync.Once
	matrix    *Matrix
}

// ScenarioOption configures a Scenario under construction; all validation
// happens in NewScenario.
type ScenarioOption func(*Scenario)

// WithMapper selects the mapping heuristic by registry spec, e.g. "PAM",
// "MinMin" or "kpb:percent=30" (see NewMapper for the grammar).
func WithMapper(spec string) ScenarioOption {
	return func(s *Scenario) { s.mapperSpec = spec; s.mapperSpecSet = true }
}

// WithMapperImpl plugs in a custom Mapper implementation. With more than
// one worker the same value is shared across concurrent trials, so custom
// mappers must be stateless or safe for concurrent use; built-in mappers
// selected by spec are constructed fresh per trial and have no such
// requirement.
func WithMapperImpl(m Mapper) ScenarioOption {
	return func(s *Scenario) { s.mapperImpl = m; s.mapperImplSet = true }
}

// WithDropper selects the dropping policy by registry spec, e.g.
// "heuristic:beta=1.5,eta=3" or "threshold:base=0.3,adaptive" (see
// NewDropper for the grammar). The default is "reactdrop" — no proactive
// dropping.
func WithDropper(spec string) ScenarioOption {
	return func(s *Scenario) { s.dropperSpec = spec; s.dropperSpecSet = true }
}

// WithDropperPolicy plugs in a custom DropPolicy implementation. Like
// WithMapperImpl, the value is shared across concurrent trials and must be
// safe for concurrent use (the built-in policies are stateless values).
func WithDropperPolicy(p DropPolicy) ScenarioOption {
	return func(s *Scenario) { s.dropperImpl = p; s.dropperImplSet = true }
}

// WithTrials sets the number of seeded trials (default 1; the paper
// reports 30).
func WithTrials(n int) ScenarioOption {
	return func(s *Scenario) { s.trials = n }
}

// WithSeed sets the base seed; trial t generates its trace with seed+t
// (default 1).
func WithSeed(seed int64) ScenarioOption {
	return func(s *Scenario) { s.seed = seed }
}

// WithTasks sets the number of arriving tasks per trial — the paper's
// oversubscription level (default 30000).
func WithTasks(n int) ScenarioOption {
	return func(s *Scenario) { s.tasks = n }
}

// WithWindow sets the arrival window in ticks (default StandardWindow).
func WithWindow(w Tick) ScenarioOption {
	return func(s *Scenario) { s.window = w }
}

// WithGamma sets the deadline slack coefficient γ (default
// DefaultGammaSlack).
func WithGamma(gamma float64) ScenarioOption {
	return func(s *Scenario) { s.gamma = gamma }
}

// WithQueueCap sets the machine queue bound, including the running task
// (default 6, the paper's setting).
func WithQueueCap(n int) ScenarioOption {
	return func(s *Scenario) { s.queueCap = n }
}

// WithFailures enables machine failure injection. The config's Seed is
// offset by the trial index so failure schedules vary with the workload
// while staying reproducible.
func WithFailures(fc FailureConfig) ScenarioOption {
	return func(s *Scenario) { s.failures = fc }
}

// WithChurn enables machine churn injection: a deterministic plan of
// remove/revive membership events (GenerateChurn) is applied to the trial
// while it feeds — the offline analogue of the service's runtime machine
// churn, with removed queues handed back to the batch. The config's Seed
// is offset by the trial index, like WithFailures. Churn differs from
// failures: a failed machine's queue is lost and rebuilt by the recovery
// model, a churned machine leaves gracefully with its queue handed off.
func WithChurn(cc ChurnConfig) ScenarioOption {
	return func(s *Scenario) { s.churn = cc }
}

// WithGrace sets the reactive-dropping grace window of the
// approximate-computing extension; pair it with the "approx" dropper so
// policy and engine assume the same leeway.
func WithGrace(g Tick) ScenarioOption {
	return func(s *Scenario) { s.grace = g }
}

// WithWorkers bounds trial parallelism (default 0 = GOMAXPROCS).
func WithWorkers(n int) ScenarioOption {
	return func(s *Scenario) { s.workers = n }
}

// WithMaxImpulses overrides the calculus' PMF compaction budget (default
// 0 = pmf.DefaultMaxImpulses). Smaller budgets trade completion-time
// accuracy for speed; the ext-budget experiment sweeps this knob.
func WithMaxImpulses(n int) ScenarioOption {
	return func(s *Scenario) { s.maxImpulses = n }
}

// WithShards partitions the system's machines into n independent
// admission shards (round-robin by machine, so each shard keeps a
// proportional mix of machine types) with a routing policy in front —
// the sharded cluster architecture (default 1 = the paper's single
// global scheduler; n must not exceed the machine count). Probabilistic
// pruning is shard-local by construction, so the calculus inside each
// shard is the paper's calculus on a smaller system; with n > 1 the
// boundary-exclusion window is split evenly across shards and failure
// seeds are offset per shard. Every scenario runs on this cluster driver;
// with one shard it is the unsharded engine itself.
func WithShards(n int) ScenarioOption {
	return func(s *Scenario) { s.shards = n }
}

// WithRouter selects the shard-routing policy by registry spec: "rr"
// (round-robin), "p2c[:seed=..]" (power-of-two-choices over per-class
// robustness estimates) or "hash[:seed=..]" (task-class partitioning; see
// NewRouter for the grammar). The default is "rr"; irrelevant unless
// WithShards(n > 1).
func WithRouter(spec string) ScenarioOption {
	return func(s *Scenario) { s.routerSpec = spec }
}

// OnTrialDone registers a progress hook invoked once per completed trial,
// possibly concurrently from several workers. The hook must not mutate
// the Result.
func OnTrialDone(fn func(trial int, res *Result)) ScenarioOption {
	return func(s *Scenario) { s.onTrial = fn }
}

// NewScenario builds a Scenario from a profile spec ("spec", "video",
// "homog", or parameterized like "spec:seed=7" — see NewProfile) and
// options, validating every registry spec and numeric range up front.
// Defaults reproduce the paper's primary configuration: PAM mapping, no
// proactive dropping, 30000 tasks over StandardWindow with γ =
// DefaultGammaSlack, queue capacity 6, one trial.
func NewScenario(profile string, opts ...ScenarioOption) (*Scenario, error) {
	s := &Scenario{
		profileSpec: profile,
		mapperSpec:  "PAM",
		dropperSpec: "reactdrop",
		trials:      1,
		seed:        1,
		tasks:       30000,
		window:      StandardWindow,
		gamma:       DefaultGammaSlack,
		queueCap:    6,
		shards:      1,
		routerSpec:  "rr",
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate resolves every registry spec and checks numeric ranges, so a
// malformed scenario fails at construction instead of mid-run.
func (s *Scenario) validate() error {
	prof, err := pet.ProfileFromSpec(s.profileSpec)
	if err != nil {
		return err
	}
	if s.shards < 1 || s.shards > prof.TotalMachines() {
		return fmt.Errorf("taskdrop: WithShards(%d) for %d machines, want 1..%d",
			s.shards, prof.TotalMachines(), prof.TotalMachines())
	}
	if _, err := router.FromSpec(s.routerSpec); err != nil {
		return err
	}
	if s.mapperSpecSet && s.mapperImplSet {
		return fmt.Errorf("taskdrop: scenario sets both WithMapper and WithMapperImpl")
	}
	if s.mapperImplSet && s.mapperImpl == nil {
		return fmt.Errorf("taskdrop: WithMapperImpl(nil); use a WithMapper spec instead")
	}
	if s.mapperImpl == nil {
		if _, err := mapping.FromSpec(s.mapperSpec); err != nil {
			return err
		}
	}
	if s.dropperSpecSet && s.dropperImplSet {
		return fmt.Errorf("taskdrop: scenario sets both WithDropper and WithDropperPolicy")
	}
	if s.dropperImplSet {
		if s.dropperImpl == nil {
			return fmt.Errorf("taskdrop: WithDropperPolicy(nil); use the default \"reactdrop\" spec instead")
		}
		s.dropper = s.dropperImpl
	} else {
		d, err := core.PolicyFromSpec(s.dropperSpec)
		if err != nil {
			return err
		}
		s.dropper = d
	}
	switch {
	case s.trials < 1:
		return fmt.Errorf("taskdrop: WithTrials(%d), want >= 1", s.trials)
	case s.tasks < 1:
		return fmt.Errorf("taskdrop: WithTasks(%d), want >= 1", s.tasks)
	case s.window < 1:
		return fmt.Errorf("taskdrop: WithWindow(%d), want >= 1", s.window)
	case s.gamma < 0:
		return fmt.Errorf("taskdrop: WithGamma(%v), want >= 0", s.gamma)
	case s.queueCap < 1:
		return fmt.Errorf("taskdrop: WithQueueCap(%d), want >= 1", s.queueCap)
	case s.grace < 0:
		return fmt.Errorf("taskdrop: WithGrace(%d), want >= 0", s.grace)
	case s.churn.MeanInterval < 0 || s.churn.MeanDown < 0:
		return fmt.Errorf("taskdrop: WithChurn mean interval %d / mean down %d, want >= 0",
			s.churn.MeanInterval, s.churn.MeanDown)
	case s.churn.Enabled() && s.churn.MeanDown < 1:
		return fmt.Errorf("taskdrop: WithChurn needs MeanDown >= 1 when enabled (got %d)", s.churn.MeanDown)
	case s.workers < 0:
		return fmt.Errorf("taskdrop: WithWorkers(%d), want >= 0", s.workers)
	case s.maxImpulses < 0:
		return fmt.Errorf("taskdrop: WithMaxImpulses(%d), want >= 0", s.maxImpulses)
	}
	return nil
}

// Matrix returns the scenario's built PET matrix, resolved through the
// process-wide cache in internal/pet (built once per profile spec across
// all scenarios and services; safe for concurrent use).
func (s *Scenario) Matrix() *Matrix {
	s.buildOnce.Do(func() {
		m, err := pet.CachedMatrix(s.profileSpec)
		if err != nil {
			// Unreachable: validate() resolved the same spec at construction.
			panic(err)
		}
		s.matrix = m
	})
	return s.matrix
}

// WorkloadConfig returns the per-trial workload shape.
func (s *Scenario) WorkloadConfig() WorkloadConfig {
	return workload.Config{TotalTasks: s.tasks, Window: s.window, GammaSlack: s.gamma}
}

// newMapper returns the mapper for one trial: custom implementations are
// shared, spec-selected mappers are constructed fresh so stateful built-ins
// (e.g. Random) never race across workers.
func (s *Scenario) newMapper() (Mapper, error) {
	if s.mapperImpl != nil {
		return s.mapperImpl, nil
	}
	return mapping.FromSpec(s.mapperSpec)
}

// simConfig assembles the engine configuration for one trial.
func (s *Scenario) simConfig(trial int) SimConfig {
	cfg := sim.DefaultConfig()
	cfg.QueueCap = s.queueCap
	cfg.ReactiveGrace = s.grace
	if s.failures.Enabled() {
		cfg.Failures = s.failures
		cfg.Failures.Seed = s.failures.Seed + int64(trial)
	}
	return cfg
}

// Trace returns the workload trace trial t runs: generated from the
// scenario's matrix, workload shape and seed+t, through the sweep's
// shared trace cache when the scenario is a sweep cell. Two scenarios
// differing only in policy return identical traces for the same trial —
// the pairing the evaluation methodology rests on.
func (s *Scenario) Trace(trial int) (*Trace, error) {
	if trial < 0 || trial >= s.trials {
		return nil, fmt.Errorf("taskdrop: trial %d out of range [0,%d)", trial, s.trials)
	}
	return s.trace(trial), nil
}

// trace generates (or fetches, under a sweep) the trial's trace.
func (s *Scenario) trace(trial int) *workload.Trace {
	m := s.Matrix()
	cfg := s.WorkloadConfig()
	seed := s.seed + int64(trial)
	if s.genTrace != nil {
		return s.genTrace(s.profileSpec, m, cfg, seed)
	}
	return workload.Generate(m, cfg, seed)
}

// Engine builds the simulation engine for one trial of the scenario, for
// callers that need more than Result carries: Record(engine) before
// running it collects per-task states and the per-type and per-machine
// breakdowns. The engine is always the unsharded, unchurned one — it
// ignores WithShards and WithChurn; sharded introspection goes through
// sim.Cluster (see WithShards).
func (s *Scenario) Engine(trial int) (*Engine, error) {
	if trial < 0 || trial >= s.trials {
		return nil, fmt.Errorf("taskdrop: trial %d out of range [0,%d)", trial, s.trials)
	}
	mapper, err := s.newMapper()
	if err != nil {
		return nil, err
	}
	eng := sim.New(s.Matrix(), s.trace(trial), mapper, s.dropper, s.simConfig(trial))
	if s.maxImpulses > 0 {
		eng.Calc().MaxImpulses = s.maxImpulses
	}
	return eng, nil
}

// runTrial executes one seeded trial on a cluster of s.shards ≥ 1 shard
// engines: the trace is routed task-by-task by the scenario's routing
// policy, the trial's churn plan (empty unless WithChurn) is applied at
// arrival boundaries, then the shards drain and their results merge. One
// shard is the unsharded engine exactly (sim.Cluster routes nothing and
// merges nothing), so there is no second driver. The run is
// single-goroutine and fully deterministic for a fixed (seed, shard count,
// router spec); trial-level parallelism comes from the worker pool.
//
// Next to the Result it returns the trial's calculus counters, summed over
// the shard engines.
func (s *Scenario) runTrial(ctx context.Context, trial int) (*Result, CalcStats, error) {
	var calc CalcStats
	pol, err := router.FromSpec(s.routerSpec)
	if err != nil {
		return nil, calc, err
	}
	cl, err := sim.NewCluster(s.Matrix(), s.shards, pol, func(int) (sim.Mapper, core.Policy, error) {
		m, err := s.newMapper()
		if err != nil {
			return nil, nil, err
		}
		return m, s.dropper, nil
	}, s.simConfig(trial))
	if err != nil {
		return nil, calc, err
	}
	if s.maxImpulses > 0 {
		for _, eng := range cl.Shards() {
			eng.Calc().MaxImpulses = s.maxImpulses
		}
	}
	// The churn plan is pre-generated per trial (seed offset like failure
	// schedules) and applied at arrival boundaries: every event due at or
	// before a task's arrival fires before that task is routed, so the run
	// stays a pure function of (trace, plan).
	cc := s.churn
	cc.Seed += int64(trial)
	plan := sim.GenerateChurn(len(s.Matrix().Machines()), s.window, cc)
	tr := s.trace(trial)
	next := 0
	for i := range tr.Tasks {
		if err := ctx.Err(); err != nil {
			return nil, calc, err
		}
		for next < len(plan) && plan[next].At <= tr.Tasks[i].Arrival {
			if err := cl.ApplyChurn(plan[next]); err != nil {
				return nil, calc, err
			}
			next++
		}
		cl.Feed(&tr.Tasks[i])
	}
	// Trailing events (revives past the last arrival) fire before the
	// drain so the drained system reflects the full plan.
	for ; next < len(plan); next++ {
		if err := cl.ApplyChurn(plan[next]); err != nil {
			return nil, calc, err
		}
	}
	res := cl.Drain()
	for _, eng := range cl.Shards() {
		calc.Add(eng.Calc().Stats())
	}
	if s.onTrial != nil {
		s.onTrial(trial, res)
	}
	return res, calc, nil
}

// RunResult is the outcome of Scenario.Run: the raw per-trial results in
// trial order plus their mean ± 95% CI aggregation.
type RunResult struct {
	Trials  []*Result `json:"trials"`
	Summary Summary   `json:"summary"`
	// Calc sums the calculus counters of every trial's engines (chain
	// cache hits, mapper candidates evaluated and pruned, ...): how the
	// result was computed, not part of it, so it is not serialized.
	Calc CalcStats `json:"-"`
}

// Run executes every trial across the worker pool and blocks until all
// finish. When ctx is cancelled mid-run the in-flight simulations stop
// between events and (nil, ctx.Err()) is returned promptly. The result is
// identical for any WithWorkers value.
func (s *Scenario) Run(ctx context.Context) (*RunResult, error) {
	results := make([]*Result, s.trials)
	calcs := make([]CalcStats, s.trials)
	s.Matrix() // build once, outside the pool
	err := runner.ForEach(ctx, s.workers, s.trials, func(ctx context.Context, t int) error {
		res, calc, err := s.runTrial(ctx, t)
		if err != nil {
			return err
		}
		results[t], calcs[t] = res, calc
		return nil
	})
	if err != nil {
		return nil, err
	}
	rr := &RunResult{Trials: results, Summary: runner.Summarize(results)}
	for _, c := range calcs {
		rr.Calc.Add(c)
	}
	return rr, nil
}

// TrialOutcome is one element of a Scenario.Stream: a completed trial, or
// (as the final element, with Trial = -1) the error that ended the stream
// early.
type TrialOutcome struct {
	Trial  int     `json:"trial"`
	Result *Result `json:"result,omitempty"`
	Err    error   `json:"-"`
	// Error mirrors Err as text so a streamed outcome survives JSON
	// round-trips (error values don't marshal); empty on success.
	Error string `json:"error,omitempty"`
}

// Stream executes the scenario like Run but delivers each trial's result
// as soon as it completes (in completion order, not trial order). The
// channel is buffered for the whole run — the producer never blocks on a
// slow consumer — and is closed once all trials finish or the run stops
// early; a run that stops early sends a final TrialOutcome carrying the
// error (ctx.Err() on cancellation) before closing.
func (s *Scenario) Stream(ctx context.Context) <-chan TrialOutcome {
	out := make(chan TrialOutcome, s.trials+1)
	go func() {
		defer close(out)
		s.Matrix()
		err := runner.ForEach(ctx, s.workers, s.trials, func(ctx context.Context, t int) error {
			res, _, err := s.runTrial(ctx, t)
			if err != nil {
				return err
			}
			out <- TrialOutcome{Trial: t, Result: res}
			return nil
		})
		if err != nil {
			out <- TrialOutcome{Trial: -1, Err: err, Error: err.Error()}
		}
	}()
	return out
}
