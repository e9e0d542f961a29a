// Package service hosts the paper's dropper + mapper as a long-running
// online admission controller — the serving layer over the same machinery
// the offline simulator uses.
//
// # Concurrency model: one turn per shard behind a router
//
// The cluster's machines are partitioned into N shards (default 1). Each
// shard owns all mutable state for its machines — a shard-scoped open
// simulation engine, its machine queues, the completion-time calculus with
// its convolution workspace — behind ONE turn: a token only one goroutine
// holds at a time. An HTTP handler waits for the turn, runs the operation
// on its own goroutine and hands the turn to the next waiter, in arrival
// order. A lock-free router front-end (internal/router) picks the shard
// for every arriving task by policy (round-robin, power-of-two-choices over
// per-class robustness estimates, or task-class hashing), reading only
// atomics the shards publish. The single-writer core remains the unit of
// determinism:
//
//   - each calculus reuses a pmf.Workspace whose dense scratch array is
//     inherently single-threaded — sharding gives every shard its own;
//   - probabilistic pruning is shard-local by construction (a task's
//     completion-time PMF depends only on the queues of the machines it
//     may run on), so the paper's calculus inside a shard is exactly the
//     calculus on a smaller system;
//   - decisions within a shard are serialized in submission order, so for
//     a sequential client the decision sequence — routing included — is a
//     pure function of the request sequence, which lets the online
//     controller be validated against the offline cluster simulator.
//
// Decide throughput multiplies twice over: per-decision work shrinks with
// the shard's machine count (the mapper and dropper scan shard-local
// queues only), and on multi-core hosts the shards advance in parallel.
//
// # One shard state machine
//
// A shard's state is a deterministic function of the input records applied
// to it, and each kind is applied by one piece of code: build assembles the
// shard (New serves it; replay takes the one the manifest pins),
// shard.admit applies an arrival, shard.applyMembership a membership
// operation, shard.drain the drain — each logged before it is applied, so
// what it causes follows it — and every record leaves through shard.emit.
// Reading a log back is as single: shard.apply interprets an input record
// by calling those methods, and shard.replayLog is the one walk over the
// segments — it applies the inputs, matches every commit's logged digest
// against the digest of what emit derives, and compares the checkpoints it
// passes.
// hcreplay -verify is that walk from the oldest start the log retains
// (genesis, or the checkpoint before its first segment), and hcreplay
// -decision the same walk explaining one decision on the way; crash
// recovery is the same walk from the newest checkpoint but one, on the
// shard about to be served, so a server resumes only on a tail its own
// re-execution reproduces. The live shard, recovery, hcreplay -verify and hcreplay
// -decision differ only in where records come from and where emit sends
// them, so replay == live and recovered == uninterrupted by construction.
//
// # Memory model
//
// A shard holds a task while it is live — deferred in the batch or on a
// machine queue, so at most the queue slots plus the backlog — and lets go
// of it the moment it settles: the engine folds the outcome into a census
// and a small tally (sim.Live, sim.Tally: counts by outcome, the grace
// credit, and the outcomes of the first and last BoundaryExclusion
// arrivals), and the drain Result is read off those, exactly as an offline
// trial's is. Memory, a checkpoint's size and the time to write, restore
// or verify one therefore follow what is queued now, not how many tasks
// the shard has ever admitted; live gauges are O(1). So does the journal
// on disk: each checkpoint deletes the history recovery no longer reads,
// leaving two checkpoints and the segments after the older one
// (internal/journal, "Retention"). The dedup window and trace ring are
// bounded by constants.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/telemetry"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// ErrDraining is returned for work submitted after Drain has begun.
var ErrDraining = errors.New("service: controller is draining")

// ErrJournalFailed is returned by a shard whose write-ahead log has lost a
// write: for the request whose own commit failed, and — before the engine
// is touched — for every decide and membership operation after it. The
// shard stops admitting rather than acknowledge onto a log that no longer
// records; the HTTP layer answers 503 and /readyz turns 503, and a restart
// recovers the state of the last good commit.
var ErrJournalFailed = errors.New("service: journal write failed; shard stopped admitting")

// Config assembles an admission controller. Profile, Mapper, Dropper and
// Router are registry specs — the same grammar as the CLI flags and the
// Scenario API (see internal/spec).
type Config struct {
	// Profile is the system profile spec (e.g. "spec", "video", "spec:seed=7").
	Profile string
	// Mapper is the mapping heuristic spec (default "PAM").
	Mapper string
	// Dropper is the dropping policy spec (default "heuristic").
	Dropper string
	// Shards partitions the machines into independent admission shards,
	// each with its own single-writer turn (default 1; must not
	// exceed the profile's machine count).
	Shards int
	// Router is the shard-routing policy spec: "rr", "p2c[:seed=..]" or
	// "hash[:seed=..]" (default "rr"; irrelevant with one shard).
	Router string
	// Partition scopes the controller to one machine partition of the
	// profile, written "k/K": the matrix's machines are dealt round-robin
	// into K parts (sim.PartitionMachines) and this controller owns part k,
	// sub-sharding it per Shards. Empty (the default) owns the whole
	// matrix. K sibling processes with partitions 0/K..K-1/K cover the
	// matrix exactly once — the multi-process deployment behind cmd/hcrouter.
	Partition string
	// QueueCap bounds each machine queue, including the running task
	// (default 6, the paper's setting).
	QueueCap int
	// Grace is the reactive-dropping grace window (approximate-computing
	// extension; default 0 = the paper's model).
	Grace pmf.Tick
	// DropOnArrival engages the proactive dropper on arrival events too
	// (see sim.Config.DropOnArrival).
	DropOnArrival bool
	// BoundaryExclusion excludes the first and last N tasks from the final
	// drain Result's measured metrics, split evenly across shards. The
	// service default is 0 (account for everything served); set 100 to
	// mirror the paper's offline runs.
	BoundaryExclusion int
	// JournalDir enables the event-sourced decision journal: every shard
	// appends its admission events to a per-shard WAL under this directory
	// and commits before acknowledging, so a crashed server recovers its
	// exact pre-crash state by replay. Empty disables journaling.
	JournalDir string
	// Fsync is the journal durability policy: "always" (fsync before every
	// ack), "interval" (background fsync every FsyncInterval; the default),
	// or "never" (flush to the OS only).
	Fsync string
	// FsyncInterval is the background fsync period under the "interval"
	// policy (default 100ms).
	FsyncInterval time.Duration
	// SnapshotEvery checkpoints a shard's full state once it has admitted
	// this many arrivals since its last checkpoint, bounding recovery replay
	// (default 1250). Negative checkpoints only at drain.
	SnapshotEvery int
	// TraceSample enables stage-timed decision tracing: every Nth decision
	// (by cluster-wide sequence number) is traced through route, mailbox
	// wait, calculus, dropper, journal and ack. 0 (the default) disables
	// tracing — the decide path then reads no clock and allocates nothing
	// for telemetry.
	TraceSample int
	// Logger receives the controller's structured diagnostics (journal
	// recovery, drain). Defaults to a discard logger; the CLIs pass their
	// telemetry.NewLogger.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Profile == "" {
		c.Profile = "spec"
	}
	if c.Mapper == "" {
		c.Mapper = "PAM"
	}
	if c.Dropper == "" {
		c.Dropper = "heuristic"
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Router == "" {
		c.Router = "rr"
	}
	if c.QueueCap == 0 {
		c.QueueCap = 6
	}
	if c.Fsync == "" {
		c.Fsync = "interval"
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1250
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Controller is the online admission service: a cluster of shard-scoped
// open engines, each keeping live queue state and incrementally-maintained
// completion-time PMFs behind its own single-writer turn, fronted
// by a lock-free shard router. It decides map/defer/drop for every
// arriving task.
type Controller struct {
	cfg    Config
	matrix *pet.Matrix
	policy router.Policy
	cl     *sim.Cluster
	shards []*shard
	tel    *telemetry.Telemetry
	log    *slog.Logger
	// meanExec[type] is the execution times of a task whose spec carries
	// none (makeTask).
	meanExec [][]pmf.Tick

	// Beside its shards' Metrics: start, rejected requests, decide latency.
	start    time.Time
	rejected atomic.Int64
	latency  *telemetry.Histogram

	// dedup retains the last DefaultDedupWindow acknowledged responses by
	// decision ID for idempotent retries. The HTTP layer consults it
	// (Decide itself stays dedup-free so embedded callers and the alloc
	// budget are untouched).
	dedup *DedupWindow

	// seq issues cluster-wide arrival sequence numbers at routing time.
	seq atomic.Int64

	// fsyncLatency is the journal writers' fdatasync histogram; nil when
	// journaling is off (Config.JournalDir empty).
	fsyncLatency *telemetry.Histogram

	// memberOps counts membership operations by sim.MemberKind.
	memberOps [3]atomic.Int64

	mu       sync.Mutex // guards draining flag and final result
	draining bool
	final    *sim.Result
	// drainErr is why some shard's log does not hold the drain, set with
	// final (nil when every log does).
	drainErr error
	drained  chan struct{} // closed once every shard drained and results merged
}

// New builds the controller and recovers every shard from its journal
// (when journaling is on); the shards serve from the moment it returns.
func New(cfg Config) (*Controller, error) {
	c, err := build(cfg, false)
	if err != nil {
		return nil, err
	}
	// Recovery runs before anything can take a turn: each shard restores its
	// newest checkpoint and replays and checks its log tail single-threaded,
	// then the writers open (truncating any torn tail).
	if c.cfg.JournalDir != "" {
		if err := c.initJournal(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// build resolves the specs, obtains the (cached) PET matrix and assembles
// the cluster and its shards — everything short of serving: no journal is touched and no goroutine started. It is the one
// constructor of a shard: New serves what it returns, and offline replay
// (openReplay) re-executes a journal on what it returns for the manifest's
// Config, so the two cannot be assembled differently. cold disables the
// persistent chain caches (sim.Config.ColdChains); only the warm-vs-cold
// journal test passes true.
func build(cfg Config, cold bool) (*Controller, error) {
	cfg = cfg.withDefaults()
	matrix, err := pet.CachedMatrix(cfg.Profile)
	if err != nil {
		return nil, err
	}
	policy, err := router.FromSpec(cfg.Router)
	if err != nil {
		return nil, err
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("service: queue cap %d, want >= 1", cfg.QueueCap)
	}
	if cfg.Grace < 0 {
		return nil, fmt.Errorf("service: grace %d, want >= 0", cfg.Grace)
	}
	if cfg.BoundaryExclusion < 0 {
		return nil, fmt.Errorf("service: boundary exclusion %d, want >= 0", cfg.BoundaryExclusion)
	}
	if cfg.TraceSample < 0 {
		return nil, fmt.Errorf("service: trace sample %d, want >= 0", cfg.TraceSample)
	}
	if cfg.JournalDir != "" {
		if _, err := journal.ParseSyncPolicy(cfg.Fsync); err != nil {
			return nil, err
		}
		if cfg.FsyncInterval < 0 {
			return nil, fmt.Errorf("service: fsync interval %v, want >= 0", cfg.FsyncInterval)
		}
	}
	simCfg := sim.Config{
		QueueCap:          cfg.QueueCap,
		BoundaryExclusion: cfg.BoundaryExclusion,
		DropOnArrival:     cfg.DropOnArrival,
		ReactiveGrace:     cfg.Grace,
		ColdChains:        cold,
	}
	// Every built-in mapper and dropper is a stateless value, so the shards
	// share one of each. A spec the registry no longer knows (a journal
	// served under a since-deleted policy) is refused here, by name.
	mapper, err := mapping.FromSpec(cfg.Mapper)
	if err != nil {
		return nil, err
	}
	dropper, err := core.PolicyFromSpec(cfg.Dropper)
	if err != nil {
		return nil, err
	}
	tel := telemetry.New(cfg.Shards, cfg.TraceSample, telemetry.DefaultRingSize)
	// Each shard's dropper is wrapped with the shard's trace recorder so a
	// sampled decision attributes the verdict time to its dropper span (a
	// pure pass-through; verdicts are unchanged).
	cl, err := buildCluster(matrix, cfg.Partition, cfg.Shards, policy, func(s int) (sim.Mapper, core.Policy, error) {
		return mapper, telemetry.TimedPolicy{Inner: dropper, Rec: tel.Shard(s)}, nil
	}, simCfg)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:      cfg,
		matrix:   matrix,
		meanExec: meanExecByType(matrix),
		policy:   policy,
		cl:       cl,
		shards:   make([]*shard, cfg.Shards),
		tel:      tel,
		log:      cfg.Logger,
		start:    time.Now(),
		latency:  telemetry.NewHistogram(latencyBuckets),
		dedup:    NewDedupWindow(DefaultDedupWindow),
		drained:  make(chan struct{}),
	}
	for s := 0; s < cfg.Shards; s++ {
		sh := &shard{
			id:        s,
			c:         c,
			eng:       cl.Shards()[s],
			view:      cl.View(s),
			metrics:   &Metrics{},
			rec:       tel.Shard(s),
			turn:      make(chan struct{}, 1),
			watermark: -1,
		}
		sh.hookEngine()
		sh.publishMembership()
		c.shards[s] = sh
	}
	return c, nil
}

// parsePartition parses a "k/K" partition spec against the profile's
// machine count, returning the owned part index and the part count.
func parsePartition(s string, machines int) (k, total int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &k, &total); err != nil {
		return 0, 0, fmt.Errorf("service: partition %q, want \"k/K\" (e.g. \"0/2\")", s)
	}
	if total < 1 || total > machines {
		return 0, 0, fmt.Errorf("service: partition %q splits %d machines into %d parts, want 1..%d",
			s, machines, total, machines)
	}
	if k < 0 || k >= total {
		return 0, 0, fmt.Errorf("service: partition %q owns part %d, want 0..%d", s, k, total-1)
	}
	return k, total, nil
}

// buildCluster constructs the controller's shard cluster. An empty
// partition owns the whole matrix; "k/K" takes part k of the matrix-wide
// round-robin deal and sub-shards it locally.
func buildCluster(matrix *pet.Matrix, partition string, shards int, pol router.Policy, perShard sim.ShardBuilder, simCfg sim.Config) (*sim.Cluster, error) {
	k, total := 0, 1
	if partition != "" {
		var err error
		if k, total, err = parsePartition(partition, len(matrix.Machines())); err != nil {
			return nil, err
		}
	}
	return sim.NewClusterOver(matrix, k, total, shards, pol, perShard, simCfg)
}

// Matrix returns the served system's PET matrix.
func (c *Controller) Matrix() *pet.Matrix { return c.matrix }

// NumShards returns the number of admission shards.
func (c *Controller) NumShards() int { return len(c.shards) }

// NumMachines returns the number of machines this controller owns — the
// whole matrix, or just its partition under Config.Partition.
func (c *Controller) NumMachines() int { return c.cl.NumMachines() }

// Decide routes one batch of arriving tasks across the shards and admits
// each through its shard's pipeline (reactive drop of expired tasks,
// proactive dropping policy, mapping heuristic), returning one decision
// per task in request order. Routing reads only lock-free shard views;
// per-shard sub-batches are processed by their shards concurrently.
// For a sequential client the whole sequence — routing included — is
// deterministic.
//
// A sub-batch either commits or leaves its shard untouched (a request
// whose ctx is cancelled while still queued is skipped; a journal failure,
// which fed the engine but did not commit, stops admission until a
// restart). When one shard of a multi-shard batch fails after another
// committed, FanOut marks the error a partial commit and DecideHandler
// spends the request's decision ID.
func (c *Controller) Decide(ctx context.Context, req *DecideRequest) (*DecideResponse, error) {
	resp := new(DecideResponse)
	if err := c.decide(ctx, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// decide is Decide answering into resp, whose Decisions storage it reuses:
// the decide route's form (DecideHandler), which keeps one response per
// connection. On an error resp holds nothing to read.
func (c *Controller) decide(ctx context.Context, req *DecideRequest, resp *DecideResponse) error {
	if req == nil || len(req.Tasks) == 0 {
		return fmt.Errorf("service: empty decide request")
	}
	if err := req.Validate(c.matrix.NumTaskTypes(), c.matrix.NumMachineTypes()); err != nil {
		c.rejected.Add(1)
		return err
	}
	c.mu.Lock()
	draining := c.draining
	c.mu.Unlock()
	if draining {
		return ErrDraining
	}

	// Task i of the request takes sequence number base+i.
	n := len(req.Tasks)
	base := c.seq.Add(int64(n)) - int64(n)
	resp.Now, resp.Decisions = 0, slices.Grow(resp.Decisions[:0], n)[:n]

	// Stage tracing: sampled requests get an in-flight Trace whose origin is
	// taken once per batch (one clock read amortized over the sub-batches).
	// traces stays nil when sampling is off or no sequence hit the period —
	// the common path carries a nil slice and nothing else.
	var traces []*telemetry.Trace
	if c.tel.Enabled() {
		origin := time.Now()
		for i := range n {
			if a := c.tel.Begin(base+int64(i), origin); a != nil {
				if traces == nil {
					traces = make([]*telemetry.Trace, n)
				}
				traces[i] = a
			}
		}
	}

	if len(c.shards) == 1 {
		now, err := c.shards[0].decide(ctx, req, resp, nil, base, traces)
		resp.Now = now
		return err
	}

	// Route every task up front (deterministic for a sequential client),
	// then fan the per-shard sub-batches out.
	byShard := make([][]int, len(c.shards))
	for i := range req.Tasks {
		t := &req.Tasks[i]
		s := c.cl.Route(base+int64(i), pet.TaskType(t.Type), t.Arrival, t.Deadline)
		byShard[s] = append(byShard[s], i)
	}
	now, err := FanOut(byShard, func(s int) (pmf.Tick, error) {
		return c.shards[s].decide(ctx, req, resp, byShard[s], base, traces)
	})
	resp.Now = now
	return err
}

// FanOutPhased is the one fan-out of a decide request, over a controller's
// shards (FanOut) and over the router tier's backends. It calls start(g)
// for every non-empty group of groups, then wait(g) for each in order, and
// returns the latest clock they answered. When a group fails it returns the
// first error in group order, marked as a partial commit
// (errPartialCommit) when another group committed. Every started group is
// waited on, whatever the others answered.
func FanOutPhased(groups [][]int, start func(g int), wait func(g int) (pmf.Tick, error)) (pmf.Tick, error) {
	for g := range groups {
		if len(groups[g]) > 0 {
			start(g)
		}
	}
	var now pmf.Tick
	var err error
	committed := false
	for g := range groups {
		if len(groups[g]) == 0 {
			continue
		}
		if gnow, gerr := wait(g); gerr != nil {
			err = cmp.Or(err, gerr)
		} else {
			committed = true
			now = max(now, gnow)
		}
	}
	if err != nil && committed {
		err = fmt.Errorf("%w (%w)", err, errPartialCommit)
	}
	return now, err
}

// FanOut is FanOutPhased over a decide that computes in place: each
// non-empty group runs on a goroutine of its own but the last, which runs
// on the caller's once the others have started.
func FanOut(groups [][]int, decide func(g int) (pmf.Tick, error)) (pmf.Tick, error) {
	type result struct {
		now pmf.Tick
		err error
	}
	results := make([]result, len(groups))
	last := -1
	for g := range groups {
		if len(groups[g]) > 0 {
			last = g
		}
	}
	var wg sync.WaitGroup
	return FanOutPhased(groups, func(g int) {
		if g == last {
			results[g].now, results[g].err = decide(g)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g].now, results[g].err = decide(g)
		}()
	}, func(g int) (pmf.Tick, error) {
		wg.Wait()
		return results[g].now, results[g].err
	})
}

// makeTask converts a wire spec into an engine task, filling missing
// realized execution times with the PET cell means (rounded to ticks,
// meanExec) so generic clients need not carry a trace. The id is the
// cluster-wide arrival sequence number. The task borrows its execution
// times — the spec's or the controller's — and allocates nothing: the
// engine copies what it keeps (sim.Engine.Feed).
func (c *Controller) makeTask(spec *TaskSpec, id int) workload.Task {
	exec := spec.ExecByType
	if len(exec) == 0 {
		exec = c.meanExec[spec.Type]
	}
	return workload.Task{
		ID:         id,
		Type:       pet.TaskType(spec.Type),
		Arrival:    spec.Arrival,
		Deadline:   spec.Deadline,
		ExecByType: exec,
	}
}

// meanExecByType is every task type's PET cell means, rounded to ticks and
// at least 1: the execution times makeTask gives a spec that carries none.
func meanExecByType(m *pet.Matrix) [][]pmf.Tick {
	out := make([][]pmf.Tick, m.NumTaskTypes())
	for tt := range out {
		for mt := 0; mt < m.NumMachineTypes(); mt++ {
			out[tt] = append(out[tt], max(1, pmf.Tick(m.CellMean(pet.TaskType(tt), pet.MachineType(mt))+0.5)))
		}
	}
	return out
}

// Snapshot is a point-in-time view of the controller's live state, merged
// across shards: the most advanced shard clock, the summed lifecycle
// census, and every owned machine's queue in matrix-wide index order.
type Snapshot struct {
	Now    pmf.Tick       `json:"now"`
	Live   sim.Live       `json:"live"`
	Queues []MachineQueue `json:"queues"`
}

// MachineQueue is one machine of a Snapshot: its matrix-wide index, its
// name and its queue length (including the running task).
type MachineQueue struct {
	Machine int    `json:"machine"`
	Name    string `json:"name"`
	Depth   int    `json:"depth"`
}

// Stats snapshots the merged engine state under the shards' turns. Once
// draining it fails fast with ErrDraining rather than queueing behind the
// (potentially long) drain commands — a metrics scrape must not stall on
// shutdown.
func (c *Controller) Stats(ctx context.Context) (Snapshot, error) {
	shards, names, err := c.shardStats(ctx)
	if err != nil {
		return Snapshot{}, err
	}
	var snap Snapshot
	for s, ss := range shards {
		if ss.Now > snap.Now {
			snap.Now = ss.Now
		}
		snap.Live.Arrived += ss.Live.Arrived
		snap.Live.Batch += ss.Live.Batch
		snap.Live.Queued += ss.Live.Queued
		snap.Live.Running += ss.Live.Running
		snap.Live.OnTime += ss.Live.OnTime
		snap.Live.Late += ss.Live.Late
		snap.Live.DroppedReactive += ss.Live.DroppedReactive
		snap.Live.DroppedProactive += ss.Live.DroppedProactive
		snap.Live.Failed += ss.Live.Failed
		// Only machines a shard holds: the index space has no entry for a
		// place of the add lattice nothing has been added to yet.
		for local, depth := range ss.QueueDepths {
			snap.Queues = append(snap.Queues, MachineQueue{ss.Machines[local], names[s][local], depth})
		}
	}
	sort.Slice(snap.Queues, func(i, j int) bool { return snap.Queues[i].Machine < snap.Queues[j].Machine })
	return snap, nil
}

// ShardStats snapshots every shard: live census and clock through the
// shard's turn, plus the lock-free router view's per-class robustness
// estimates and the shard's decision counters. Fails fast with ErrDraining
// once a drain has begun.
func (c *Controller) ShardStats(ctx context.Context) ([]ShardSnapshot, error) {
	out, _, err := c.shardStats(ctx)
	return out, err
}

// shardStats is ShardStats plus, per shard, the names of its machines
// (names[s][i] names out[s].Machines[i]) for Stats' merged queue list.
func (c *Controller) shardStats(ctx context.Context) (out []ShardSnapshot, names [][]string, err error) {
	if c.Draining() {
		return nil, nil, ErrDraining
	}
	// Fan out like Drain does: a scrape pays the slowest shard's turn
	// wait, not the sum across shards.
	out = make([]ShardSnapshot, len(c.shards))
	names = make([][]string, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s, sh := range c.shards {
		wg.Add(1)
		go func(s int, sh *shard) {
			defer wg.Done()
			out[s], names[s], errs[s] = sh.snapshot(ctx)
		}(s, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, names, nil
}

// Drain gracefully shuts the controller down: new Decide calls are
// rejected immediately, every shard's virtual system runs its queued work
// to completion concurrently, and the merged trial Result (robustness,
// drops, cost) is returned. Draining is committed the moment Drain is
// first called: whatever happens to ctx afterwards, every shard's drain
// runs (in the background if need be) to completion, so a caller whose ctx
// expires still finds the result later through FinalResult or another
// Drain call — and concurrent waiters can rely on every shard stopping.
// A shard's log that fails to take the drain makes Drain return the merged
// Result with an error wrapping ErrJournalFailed.
func (c *Controller) Drain(ctx context.Context) (*sim.Result, error) {
	c.mu.Lock()
	first := !c.draining
	c.draining = true
	c.mu.Unlock()

	if first {
		c.log.Info("drain initiated", "shards", len(c.shards))
		// Each drain waits for its shard's turn behind the operations already
		// waiting, with no deadline: the holders always give the turn back,
		// and only the drain stops the shard. Goroutines decouple the waits
		// from ctx and drain the shards concurrently.
		go func() {
			parts := make([]*sim.Result, len(c.shards))
			errs := make([]error, len(c.shards))
			var wg sync.WaitGroup
			for s, sh := range c.shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = sh.do(context.Background(), func() {
						errs[s] = sh.drainCmd()
						parts[s] = sh.final
					})
				}()
			}
			wg.Wait()
			merged := sim.MergeResults(parts, c.cl.NumMachines())
			c.mu.Lock()
			c.final, c.drainErr = merged, errors.Join(errs...)
			c.mu.Unlock()
			close(c.drained)
		}()
	}

	select {
	case <-c.drained:
		if final, ok := c.FinalResult(); ok {
			return final, c.drainErr
		}
		return nil, ErrDraining
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Draining reports whether Drain has been initiated.
func (c *Controller) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// readiness is the server's /readyz status (ReadyResponse): "ok", or why
// it can admit nothing. Lock-free past the drain flag.
func (c *Controller) readiness() string {
	if c.Draining() {
		return "draining"
	}
	degraded := true
	for _, sh := range c.shards {
		if sh.journalFailed.Load() {
			return "journal-failed"
		}
		degraded = degraded && sh.view.Down()
	}
	if degraded {
		return "degraded"
	}
	return "ok"
}

// FinalResult returns the merged drain result once available.
func (c *Controller) FinalResult() (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final, c.final != nil
}

// Close drains the controller with a timeout, for callers that only need
// teardown.
func (c *Controller) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Drain(ctx)
	return err
}
