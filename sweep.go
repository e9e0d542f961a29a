package taskdrop

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/runner"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/tab"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Table is a printable experiment result (aligned text via Fprint, or
// CSV). SweepResult renders into Tables; the figure harness prints the
// same type.
type Table = tab.Table

// Metric names one aggregated statistic of a cell's Summary, for Pivot
// layouts and programmatic access (Summary.Stat).
type Metric string

// The metrics every cell aggregates (the names are the Summary's JSON
// tags).
const (
	// MetricRobustness is % of measured tasks completed on time — the
	// paper's headline metric.
	MetricRobustness Metric = "robustness"
	// MetricNormCost is Fig. 9's normalized cost ($ per 1000
	// robustness-percent).
	MetricNormCost Metric = "norm_cost"
	// MetricReactiveShare is the % of drops that were reactive (§V-F).
	MetricReactiveShare Metric = "reactive_share"
	// MetricUtility is the approximate-computing realized-utility metric.
	MetricUtility Metric = "utility"
	// MetricProactivePct / MetricReactivePct are % of measured tasks
	// dropped each way.
	MetricProactivePct Metric = "proactive_pct"
	MetricReactivePct  Metric = "reactive_pct"
)

// AxisValue is one point on an Axis: a display label plus the scenario
// options that configure a cell taking this value. Build custom values
// with Value; the typed axis constructors (Mappers, Tasks, …) build
// theirs internally.
type AxisValue struct {
	label string
	// spec preserves the text the value was declared with (registry spec,
	// number, …) so Baseline can match either the label or the raw form.
	spec string
	// profile is set only by the Profiles axis: profiles are NewScenario's
	// positional argument, not an option.
	profile string
	opts    []ScenarioOption
}

// Value builds a custom axis value from arbitrary scenario options, for
// dimensions the typed constructors don't cover (or joint dimensions like
// "mapper+dropper combos").
func Value(label string, opts ...ScenarioOption) AxisValue {
	return AxisValue{label: label, spec: label, opts: opts}
}

// Axis is one dimension of a sweep grid: a name and the values the
// dimension ranges over. A sweep expands the cross product of its axes
// into cells.
type Axis struct {
	name   string
	values []AxisValue
	err    error // deferred construction error, reported by NewSweep
}

// applySweep implements SweepItem.
func (a Axis) applySweep(s *Sweep) { s.axes = append(s.axes, a) }

// Named renames the axis dimension (shown as a column header in tables
// and addressed by Pivot), e.g. Droppers(…).Named("η").
func (a Axis) Named(name string) Axis {
	a.name = name
	return a
}

// As relabels the axis values in order; the label count must match the
// value count. Use it when the default labels collide or read poorly
// (five heuristic specs differing only in η relabel as "1"…"5").
func (a Axis) As(labels ...string) Axis {
	if len(labels) != len(a.values) {
		a.err = fmt.Errorf("taskdrop: axis %q has %d values but As got %d labels", a.name, len(a.values), len(labels))
		return a
	}
	vals := append([]AxisValue(nil), a.values...)
	for i := range vals {
		vals[i].label = labels[i]
	}
	a.values = vals
	return a
}

// Values builds a custom axis from explicit values.
func Values(name string, vals ...AxisValue) Axis {
	return Axis{name: name, values: vals}
}

// Profiles declares the system-profile axis ("spec", "video", "homog", or
// parameterized — see NewProfile). Without a Profiles axis a sweep uses
// the paper's primary "spec" system.
func Profiles(specs ...string) Axis {
	a := Axis{name: "profile"}
	for _, sp := range specs {
		a.values = append(a.values, AxisValue{label: sp, spec: sp, profile: sp})
	}
	return a
}

// Mappers declares the mapping-heuristic axis from registry specs (see
// NewMapper).
func Mappers(specs ...string) Axis {
	a := Axis{name: "mapper"}
	for _, sp := range specs {
		a.values = append(a.values, AxisValue{label: sp, spec: sp, opts: []ScenarioOption{WithMapper(sp)}})
	}
	return a
}

// Droppers declares the dropping-policy axis from registry specs (see
// NewDropper). Values are labeled with the policy's display name
// ("Heuristic", "ReactDrop", …) when those are distinct, else with the
// spec text; relabel with As when sweeping one policy's parameters.
func Droppers(specs ...string) Axis {
	a := Axis{name: "dropper"}
	labels := make([]string, len(specs))
	distinct := make(map[string]bool)
	for i, sp := range specs {
		labels[i] = sp
		if p, err := core.PolicyFromSpec(sp); err == nil {
			labels[i] = p.Name()
		}
		distinct[labels[i]] = true
	}
	for i, sp := range specs {
		label := labels[i]
		if len(distinct) != len(specs) {
			label = sp // display names collide; fall back to the raw specs
		}
		a.values = append(a.values, AxisValue{label: label, spec: sp, opts: []ScenarioOption{WithDropper(sp)}})
	}
	return a
}

// Tasks declares the oversubscription axis: arriving tasks per trial.
// Values divisible by 1000 are labeled "20k"-style, as in the paper's
// figures.
func Tasks(levels ...int) Axis {
	a := Axis{name: "tasks"}
	for _, n := range levels {
		a.values = append(a.values, AxisValue{
			label: taskLevelLabel(n), spec: strconv.Itoa(n),
			opts: []ScenarioOption{WithTasks(n)},
		})
	}
	return a
}

// taskLevelLabel renders an oversubscription level as "20k" when round.
func taskLevelLabel(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return strconv.Itoa(n)
}

// Gammas declares the deadline-slack-coefficient axis (γ of the deadline
// rule).
func Gammas(gs ...float64) Axis {
	a := Axis{name: "gamma"}
	for _, g := range gs {
		label := strconv.FormatFloat(g, 'g', -1, 64)
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithGamma(g)}})
	}
	return a
}

// Windows declares the arrival-window axis, in ticks.
func Windows(ws ...Tick) Axis {
	a := Axis{name: "window"}
	for _, w := range ws {
		label := strconv.FormatInt(int64(w), 10)
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithWindow(w)}})
	}
	return a
}

// QueueCaps declares the machine-queue-bound axis.
func QueueCaps(ns ...int) Axis {
	a := Axis{name: "queuecap"}
	for _, n := range ns {
		label := strconv.Itoa(n)
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithQueueCap(n)}})
	}
	return a
}

// Graces declares the reactive-grace-window axis of the
// approximate-computing extension. The default "approx" dropper follows
// the engine grace automatically, so pairing it with this axis sweeps
// both sides of the leeway together.
func Graces(gs ...Tick) Axis {
	a := Axis{name: "grace"}
	for _, g := range gs {
		label := strconv.FormatInt(int64(g), 10)
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithGrace(g)}})
	}
	return a
}

// Budgets declares the PMF-compaction-budget axis (see WithMaxImpulses).
func Budgets(ns ...int) Axis {
	a := Axis{name: "budget"}
	for _, n := range ns {
		label := strconv.Itoa(n)
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithMaxImpulses(n)}})
	}
	return a
}

// Shards declares the cluster-sharding axis (see WithShards), for
// charting robustness against shard count.
func Shards(ns ...int) Axis {
	a := Axis{name: "shards"}
	for _, n := range ns {
		label := strconv.Itoa(n)
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithShards(n)}})
	}
	return a
}

// Routers declares the shard-routing-policy axis from registry specs (see
// NewRouter and WithRouter).
func Routers(specs ...string) Axis {
	a := Axis{name: "router"}
	for _, sp := range specs {
		a.values = append(a.values, AxisValue{label: sp, spec: sp, opts: []ScenarioOption{WithRouter(sp)}})
	}
	return a
}

// FailurePlans declares the machine-failure-injection axis. A zero
// FailureConfig labels "none"; enabled configs label "mtbf=<ticks>".
func FailurePlans(fcs ...FailureConfig) Axis {
	a := Axis{name: "failures"}
	for _, fc := range fcs {
		label := "none"
		if fc.Enabled() {
			label = fmt.Sprintf("mtbf=%d", fc.MTBF)
		}
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithFailures(fc)}})
	}
	return a
}

// ChurnPlans declares the machine-churn axis (runtime membership change,
// see WithChurn). A zero ChurnConfig labels "none"; enabled configs label
// "interval=<ticks>".
func ChurnPlans(ccs ...ChurnConfig) Axis {
	a := Axis{name: "churn"}
	for _, cc := range ccs {
		label := "none"
		if cc.Enabled() {
			label = fmt.Sprintf("interval=%d", cc.MeanInterval)
		}
		a.values = append(a.values, AxisValue{label: label, spec: label, opts: []ScenarioOption{WithChurn(cc)}})
	}
	return a
}

// SweepItem is anything NewSweep accepts: an Axis, or a sweep-level
// option (SweepTrials, Baseline, …).
type SweepItem interface{ applySweep(*Sweep) }

// SweepOption is a sweep-level configuration item.
type SweepOption func(*Sweep)

// applySweep implements SweepItem.
func (o SweepOption) applySweep(s *Sweep) { o(s) }

// SweepTrials sets the seeded trials per cell (default 1; the paper
// reports 30).
func SweepTrials(n int) SweepOption {
	return func(s *Sweep) { s.trials = n }
}

// SweepSeed sets the base seed; trial t of every cell uses seed+t, which
// is what pairs the cells on identical traces.
func SweepSeed(seed int64) SweepOption {
	return func(s *Sweep) { s.seed = seed }
}

// SweepWorkers bounds simulation parallelism across the whole grid
// (default 0 = GOMAXPROCS). Unlike per-scenario workers, the pool spans
// cells: a sweep of many small cells still saturates the machine.
func SweepWorkers(n int) SweepOption {
	return func(s *Sweep) { s.workers = n }
}

// SweepScale shrinks every cell's workload by a factor in (0,1]: task
// count and window scale together, preserving each cell's arrival
// intensity (and hence oversubscription level) while shortening trials.
func SweepScale(f float64) SweepOption {
	return func(s *Sweep) { s.scale = f }
}

// Each applies scenario options to every cell of the sweep — shared
// configuration that is not an axis (a fixed queue bound, an OnTrialDone
// hook). Axis values override Each where they touch the same knob.
// WithTrials, WithSeed and WithWorkers are sweep-wide (they define the
// pairing and the pool) and are rejected here — use SweepTrials,
// SweepSeed and SweepWorkers.
func Each(opts ...ScenarioOption) SweepOption {
	return func(s *Sweep) { s.each = append(s.each, opts...) }
}

// Baseline designates one axis value as the comparison baseline, matched
// case-insensitively against value labels and raw specs ("reactdrop"
// matches the Droppers value labeled "ReactDrop"). Every other cell is
// then compared against the cell at the same coordinates with that axis
// moved to the baseline value, and carries paired-difference statistics
// in CellResult.VsBaseline.
func Baseline(value string) SweepOption {
	return func(s *Sweep) { s.baseline = value }
}

// OnCellDone registers a streaming-progress hook invoked once per
// completed cell with the number of finished cells so far. Calls are
// serialized (done counts arrive in order) from worker goroutines, so
// the hook must not block. The cell's VsBaseline is not yet populated —
// paired differences need the baseline cell, which may still be running.
func OnCellDone(fn func(done, total int, cell *CellResult)) SweepOption {
	return func(s *Sweep) { s.onCell = fn }
}

// Sweep is a declarative grid of scenarios: the cross product of its
// axes, every cell sharing trace generation by construction so
// comparisons across cells are paired. Build it with NewSweep and execute
// with Run.
type Sweep struct {
	axes     []Axis
	trials   int
	seed     int64
	workers  int
	scale    float64
	each     []ScenarioOption
	baseline string
	onCell   func(done, total int, cell *CellResult)

	cells   []*sweepCell
	strides []int
	// baseAxis/baseVal locate the resolved Baseline value; -1 when unset.
	baseAxis, baseVal int

	traceMu sync.Mutex
	traces  map[sweepTraceKey]*workload.Trace
}

// sweepCell is one expanded grid point.
type sweepCell struct {
	coords []int // value index per axis
	sc     *Scenario
	base   int // index of this cell's baseline cell, or -1
}

type sweepTraceKey struct {
	profile string
	cfg     workload.Config
	seed    int64
}

// NewSweep expands a grid of axes into paired scenarios. Axes and
// sweep-level options mix freely in the argument list:
//
//	sw, err := taskdrop.NewSweep(
//	    taskdrop.Profiles("spec"),
//	    taskdrop.Mappers("PAM"),
//	    taskdrop.Droppers("heuristic", "reactdrop"),
//	    taskdrop.Tasks(20000, 30000, 40000),
//	    taskdrop.SweepTrials(30),
//	    taskdrop.Baseline("reactdrop"),
//	)
//
// Every cell is validated at construction (unknown specs, out-of-range
// values and ambiguous axes fail here, not mid-run). Cells sharing a
// (profile, workload, seed) combination receive the identical trace
// instance per trial, so cross-cell comparisons are paired by
// construction.
func NewSweep(items ...SweepItem) (*Sweep, error) {
	s := &Sweep{
		trials:   1,
		seed:     1,
		scale:    1,
		baseAxis: -1,
		baseVal:  -1,
		traces:   map[sweepTraceKey]*workload.Trace{},
	}
	for _, it := range items {
		if it == nil {
			return nil, fmt.Errorf("taskdrop: nil sweep item")
		}
		it.applySweep(s)
	}
	if len(s.axes) == 0 {
		return nil, fmt.Errorf("taskdrop: sweep has no axes")
	}
	if s.trials < 1 {
		return nil, fmt.Errorf("taskdrop: SweepTrials(%d), want >= 1", s.trials)
	}
	if s.workers < 0 {
		return nil, fmt.Errorf("taskdrop: SweepWorkers(%d), want >= 0", s.workers)
	}
	if err := workload.CheckScale(s.scale); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, ax := range s.axes {
		if ax.err != nil {
			return nil, ax.err
		}
		if ax.name == "" {
			return nil, fmt.Errorf("taskdrop: sweep axis with empty name")
		}
		if seen[ax.name] {
			return nil, fmt.Errorf("taskdrop: duplicate sweep axis %q", ax.name)
		}
		seen[ax.name] = true
		if len(ax.values) == 0 {
			return nil, fmt.Errorf("taskdrop: sweep axis %q has no values", ax.name)
		}
		labels := map[string]bool{}
		for _, v := range ax.values {
			key := strings.ToLower(v.label)
			if labels[key] {
				return nil, fmt.Errorf("taskdrop: axis %q has duplicate value label %q (relabel with As)", ax.name, v.label)
			}
			labels[key] = true
		}
	}
	if err := s.resolveBaseline(); err != nil {
		return nil, err
	}
	if err := s.expand(); err != nil {
		return nil, err
	}
	return s, nil
}

// resolveBaseline locates the Baseline value on the axes.
func (s *Sweep) resolveBaseline() error {
	if s.baseline == "" {
		return nil
	}
	for ai, ax := range s.axes {
		for vi, v := range ax.values {
			if !strings.EqualFold(v.label, s.baseline) && !strings.EqualFold(v.spec, s.baseline) {
				continue
			}
			if s.baseAxis >= 0 {
				return fmt.Errorf("taskdrop: baseline %q is ambiguous: matches axis %q and axis %q",
					s.baseline, s.axes[s.baseAxis].name, ax.name)
			}
			s.baseAxis, s.baseVal = ai, vi
		}
	}
	if s.baseAxis < 0 {
		return fmt.Errorf("taskdrop: baseline %q matches no axis value", s.baseline)
	}
	return nil
}

// expand materializes the cross product into validated scenarios.
func (s *Sweep) expand() error {
	n := 1
	s.strides = make([]int, len(s.axes))
	for i := len(s.axes) - 1; i >= 0; i-- {
		s.strides[i] = n
		n *= len(s.axes[i].values)
	}
	s.cells = make([]*sweepCell, 0, n)
	coords := make([]int, len(s.axes))
	for idx := 0; idx < n; idx++ {
		rem := idx
		for a := range s.axes {
			coords[a] = rem / s.strides[a]
			rem %= s.strides[a]
		}
		cell, err := s.buildCell(coords)
		if err != nil {
			return err
		}
		s.cells = append(s.cells, cell)
	}
	return nil
}

// buildCell constructs and validates the scenario at one grid point.
func (s *Sweep) buildCell(coords []int) (*sweepCell, error) {
	profile := "spec"
	opts := append([]ScenarioOption(nil), s.each...)
	for a, vi := range coords {
		v := s.axes[a].values[vi]
		if v.profile != "" {
			profile = v.profile
		}
		opts = append(opts, v.opts...)
	}
	if err := s.rejectSweepLevelOpts(opts, coords); err != nil {
		return nil, err
	}
	opts = append(opts, WithTrials(s.trials), WithSeed(s.seed), WithWorkers(s.workers))
	sc, err := NewScenario(profile, opts...)
	if err != nil {
		return nil, fmt.Errorf("taskdrop: sweep cell %s: %w", s.cellName(coords), err)
	}
	if s.scale != 1 {
		cfg := workload.Config{TotalTasks: sc.tasks, Window: sc.window, GammaSlack: sc.gamma}.Scaled(s.scale)
		sc.tasks, sc.window = cfg.TotalTasks, cfg.Window
	}
	sc.genTrace = s.cachedTrace
	cell := &sweepCell{coords: append([]int(nil), coords...), sc: sc, base: -1}
	if s.baseAxis >= 0 && coords[s.baseAxis] != s.baseVal {
		cell.base = s.cellIndex(coords, s.baseAxis, s.baseVal)
	}
	return cell, nil
}

// rejectSweepLevelOpts refuses cell options that the sweep owns: trials,
// seed and workers are grid-wide (they define the pairing and the pool),
// so WithTrials/WithSeed/WithWorkers inside Each or an axis value would
// otherwise be silently overridden.
func (s *Sweep) rejectSweepLevelOpts(opts []ScenarioOption, coords []int) error {
	const sentinelSeed = int64(-1) << 62
	probe := Scenario{trials: -1, seed: sentinelSeed, workers: -1}
	for _, opt := range opts {
		opt(&probe)
	}
	switch {
	case probe.trials != -1:
		return fmt.Errorf("taskdrop: sweep cell %s sets WithTrials; use SweepTrials", s.cellName(coords))
	case probe.seed != sentinelSeed:
		return fmt.Errorf("taskdrop: sweep cell %s sets WithSeed; use SweepSeed", s.cellName(coords))
	case probe.workers != -1:
		return fmt.Errorf("taskdrop: sweep cell %s sets WithWorkers; use SweepWorkers", s.cellName(coords))
	}
	return nil
}

// cellIndex computes the flat index of coords with one axis overridden.
func (s *Sweep) cellIndex(coords []int, axis, val int) int {
	idx := 0
	for a, c := range coords {
		if a == axis {
			c = val
		}
		idx += c * s.strides[a]
	}
	return idx
}

// cellName renders a cell's coordinates for error messages and labels:
// the value labels of every non-singleton axis (all axes when every axis
// is a singleton), joined with " / ".
func (s *Sweep) cellName(coords []int) string {
	var parts []string
	for a, vi := range coords {
		if len(s.axes[a].values) > 1 {
			parts = append(parts, s.axes[a].values[vi].label)
		}
	}
	if len(parts) == 0 {
		for a, vi := range coords {
			parts = append(parts, s.axes[a].values[vi].label)
		}
	}
	return strings.Join(parts, " / ")
}

// cachedTrace memoizes trace generation across cells: every cell with the
// same (profile, workload shape, seed) receives the one instance. Traces
// are read-only during simulation, so sharing across engines is safe.
func (s *Sweep) cachedTrace(profileSpec string, m *Matrix, cfg workload.Config, seed int64) *workload.Trace {
	key := sweepTraceKey{profile: strings.ToLower(strings.TrimSpace(profileSpec)), cfg: cfg, seed: seed}
	s.traceMu.Lock()
	tr, ok := s.traces[key]
	s.traceMu.Unlock()
	if ok {
		return tr
	}
	tr = workload.Generate(m, cfg, seed)
	s.traceMu.Lock()
	// Keep the first stored instance so racing cells still share one trace.
	if prior, ok := s.traces[key]; ok {
		tr = prior
	} else {
		s.traces[key] = tr
	}
	s.traceMu.Unlock()
	return tr
}

// Cells returns the number of grid points the sweep expands to.
func (s *Sweep) Cells() int { return len(s.cells) }

// Scenario returns the validated scenario at cell index i (in grid
// expansion order, first axis slowest), for introspection — e.g. fetching
// a cell's Trace to verify pairing.
func (s *Sweep) Scenario(i int) (*Scenario, error) {
	if i < 0 || i >= len(s.cells) {
		return nil, fmt.Errorf("taskdrop: cell %d out of range [0,%d)", i, len(s.cells))
	}
	return s.cells[i].sc, nil
}

// Coord is one coordinate of a cell: the axis name and the value label
// the cell takes on it.
type Coord struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// CellResult is the outcome of one grid point.
type CellResult struct {
	// Coords locates the cell, one entry per axis in declaration order.
	Coords []Coord `json:"coords"`
	// Label joins the non-singleton coordinate labels, e.g. "Heuristic / 30k".
	Label string `json:"label"`
	// Run carries the per-trial results and the cell's own mean ± 95% CI
	// aggregation.
	Run *RunResult `json:"run"`
	// Baseline marks the cells Baseline designated.
	Baseline bool `json:"baseline,omitempty"`
	// VsBaseline is the paired-difference aggregation cell − baseline over
	// per-trial differences on shared traces: its CI95 is the paired 95%
	// confidence interval, typically far tighter than combining the two
	// cells' independent CIs. Nil for baseline cells and baseline-less
	// sweeps.
	VsBaseline *Summary `json:"vs_baseline,omitempty"`
}

// Stat returns one of the cell's aggregated metrics.
func (c *CellResult) Stat(m Metric) (StatSummary, bool) {
	if c.Run == nil {
		return StatSummary{}, false
	}
	return c.Run.Summary.Stat(string(m))
}

// SweepResult is the outcome of Sweep.Run: every cell in grid order plus
// the paired-difference comparisons against the designated baseline.
type SweepResult struct {
	// Axes are the sweep's axis names, in declaration order.
	Axes []string `json:"axes"`
	// BaselineValue echoes the Baseline designation ("" when unset).
	BaselineValue string `json:"baseline_value,omitempty"`
	// Cells holds one entry per grid point, first axis slowest.
	Cells []CellResult `json:"cells"`

	axes    []Axis
	strides []int
}

// Run executes every cell × trial across one shared worker pool and
// blocks until all finish. When ctx is cancelled mid-run the in-flight
// simulations stop between events and (nil, ctx.Err()) is returned
// promptly. Results are deterministic for a fixed seed regardless of the
// worker count.
func (s *Sweep) Run(ctx context.Context) (*SweepResult, error) {
	// Build the matrices (one per distinct profile) outside the pool;
	// traces are generated lazily inside the workers, memoized per
	// (profile, workload, seed) so paired cells share one instance. The
	// cache only matters while the run is in flight — release it after so
	// a long-lived Sweep doesn't pin every generated trace.
	for _, c := range s.cells {
		c.sc.Matrix()
	}
	defer func() {
		s.traceMu.Lock()
		s.traces = map[sweepTraceKey]*workload.Trace{}
		s.traceMu.Unlock()
	}()
	perCell := make([][]*sim.Result, len(s.cells))
	for i := range perCell {
		perCell[i] = make([]*sim.Result, s.trials)
	}
	out := &SweepResult{
		BaselineValue: s.baseline,
		Cells:         make([]CellResult, len(s.cells)),
		axes:          s.axes,
		strides:       s.strides,
	}
	for _, ax := range s.axes {
		out.Axes = append(out.Axes, ax.name)
	}
	var (
		mu       sync.Mutex
		cellDone = make([]int, len(s.cells))
		// The progress hook gets its own lock so a slow hook (formatted
		// I/O) only serializes cell completions, never the per-trial
		// bookkeeping the whole pool contends on.
		hookMu sync.Mutex
		done   int
	)
	err := runner.ForEach(ctx, s.workers, len(s.cells)*s.trials, func(ctx context.Context, i int) error {
		c, t := i/s.trials, i%s.trials
		res, _, err := s.cells[c].sc.runTrial(ctx, t)
		if err != nil {
			return fmt.Errorf("%s (trial %d): %w", s.cellName(s.cells[c].coords), t, err)
		}
		mu.Lock()
		perCell[c][t] = res
		cellDone[c]++
		finished := cellDone[c] == s.trials
		mu.Unlock()
		if finished {
			out.Cells[c] = s.cellResult(c, perCell[c])
			hookMu.Lock()
			done++
			if s.onCell != nil {
				s.onCell(done, len(s.cells), &out.Cells[c])
			}
			hookMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Paired differences need both sides complete; fill them in after the
	// pool drains.
	for c := range s.cells {
		base := s.cells[c].base
		if base < 0 {
			continue
		}
		diff, err := runner.SummarizeDiff(perCell[c], perCell[base])
		if err != nil {
			return nil, err
		}
		out.Cells[c].VsBaseline = &diff
	}
	return out, nil
}

// cellResult assembles one cell's aggregation (without diffs).
func (s *Sweep) cellResult(c int, results []*sim.Result) CellResult {
	cell := s.cells[c]
	cr := CellResult{
		Label:    s.cellName(cell.coords),
		Run:      &RunResult{Trials: results, Summary: runner.Summarize(results)},
		Baseline: s.baseAxis >= 0 && cell.coords[s.baseAxis] == s.baseVal,
	}
	for a, vi := range cell.coords {
		cr.Coords = append(cr.Coords, Coord{Axis: s.axes[a].name, Value: s.axes[a].values[vi].label})
	}
	return cr
}

// Cell finds the first cell whose coordinate values include every given
// label (case-insensitive); ok is false when none matches.
func (r *SweepResult) Cell(values ...string) (*CellResult, bool) {
next:
	for i := range r.Cells {
		for _, want := range values {
			found := false
			for _, co := range r.Cells[i].Coords {
				if strings.EqualFold(co.Value, want) {
					found = true
					break
				}
			}
			if !found {
				continue next
			}
		}
		return &r.Cells[i], true
	}
	return nil, false
}

// Table renders the sweep flat: one row per cell with its coordinates,
// headline metrics, and — when a baseline is designated — the paired
// robustness difference with its paired 95% CI.
func (r *SweepResult) Table() *Table {
	t := &Table{ID: "sweep", Title: "sweep results (mean ± 95% CI over paired trials)"}
	t.Columns = append(t.Columns, r.Axes...)
	t.Columns = append(t.Columns, "robustness (%)", "norm cost", "utility (%)")
	withDiff := r.BaselineValue != ""
	if withDiff {
		t.Columns = append(t.Columns, "Δ robustness vs "+r.BaselineValue+" (pp, paired)")
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		row := make([]string, 0, len(t.Columns))
		for _, co := range c.Coords {
			row = append(row, co.Value)
		}
		row = append(row,
			c.Run.Summary.Robustness.String(),
			c.Run.Summary.NormCost.String(),
			c.Run.Summary.Utility.String(),
		)
		if withDiff {
			switch {
			case c.Baseline:
				row = append(row, "baseline")
			case c.VsBaseline != nil:
				row = append(row, fmt.Sprintf("%+.2f ± %.2f", c.VsBaseline.Robustness.Mean, c.VsBaseline.Robustness.CI95))
			default:
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// CSV renders the flat Table as CSV.
func (r *SweepResult) CSV() string { return r.Table().CSV() }

// JSON serializes the full result — every cell's coordinates, per-trial
// results, aggregation and paired differences — as indented JSON.
func (r *SweepResult) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// MetricColumn is one fixed metric column of a Pivot without a column
// axis.
type MetricColumn struct {
	Header string
	Metric Metric
}

// Pivot lays a sweep out as a two-dimensional table: the Row axis values
// become rows and either the Col axis values become columns (each cell
// rendering Metric) or a fixed set of MetricColumns render several
// metrics of the same cells. Every axis not named Row or Col must be a
// singleton — a pivot is a view, not an aggregation.
type Pivot struct {
	// ID and Title name the rendered table.
	ID    string
	Title string
	// Row is the axis whose values become rows; RowHeader overrides the
	// first column's header (default: the axis name) and RowFmt formats
	// each row label (printf with one %s; default "%s").
	Row       string
	RowHeader string
	RowFmt    string
	// Col is the axis whose values become columns, rendered with ColFmt
	// (printf with one %s; default "%s"); each body cell shows Metric.
	Col    string
	ColFmt string
	Metric Metric
	// Columns replaces the Col layout with fixed metric columns.
	Columns []MetricColumn
	// Delta appends a mean-difference column (first Col value minus the
	// second; the Col axis must then have exactly two values) formatted
	// "%+.2f", headed DeltaHeader (default "Δ (pp)").
	Delta       bool
	DeltaHeader string
}

// Pivot renders the sweep as the requested two-dimensional table. It
// needs the grid geometry only Sweep.Run records: a SweepResult
// reconstructed from JSON can be inspected cell by cell but not pivoted.
func (r *SweepResult) Pivot(p Pivot) (*Table, error) {
	if len(r.axes) == 0 {
		return nil, fmt.Errorf("taskdrop: pivot needs a result produced by Sweep.Run (deserialized results carry no grid geometry)")
	}
	axisIdx := func(name string) int {
		for i, ax := range r.Axes {
			if strings.EqualFold(ax, name) {
				return i
			}
		}
		return -1
	}
	rowAx := axisIdx(p.Row)
	if rowAx < 0 {
		return nil, fmt.Errorf("taskdrop: pivot row axis %q not in sweep axes %v", p.Row, r.Axes)
	}
	colAx := -1
	if p.Col != "" {
		if colAx = axisIdx(p.Col); colAx < 0 {
			return nil, fmt.Errorf("taskdrop: pivot column axis %q not in sweep axes %v", p.Col, r.Axes)
		}
		if colAx == rowAx {
			return nil, fmt.Errorf("taskdrop: pivot Row and Col both name axis %q", p.Row)
		}
	} else if len(p.Columns) == 0 {
		return nil, fmt.Errorf("taskdrop: pivot needs a Col axis or metric Columns")
	}
	for a, ax := range r.axes {
		if a != rowAx && a != colAx && len(ax.values) != 1 {
			return nil, fmt.Errorf("taskdrop: pivot leaves axis %q (%d values) unplaced; pin it or pivot on it",
				ax.name, len(ax.values))
		}
	}
	cellAt := func(row, col int) *CellResult {
		idx := 0
		for a := range r.axes {
			switch a {
			case rowAx:
				idx += row * r.strides[a]
			case colAx:
				idx += col * r.strides[a]
			}
		}
		return &r.Cells[idx]
	}
	stat := func(c *CellResult, m Metric) (StatSummary, error) {
		st, ok := c.Stat(m)
		if !ok {
			return StatSummary{}, fmt.Errorf("taskdrop: pivot metric %q unknown", m)
		}
		return st, nil
	}

	rowFmt := p.RowFmt
	if rowFmt == "" {
		rowFmt = "%s"
	}
	header := p.RowHeader
	if header == "" {
		header = r.axes[rowAx].name
	}
	t := &Table{ID: p.ID, Title: p.Title, Columns: []string{header}}

	if colAx >= 0 {
		metric := p.Metric
		if metric == "" {
			metric = MetricRobustness
		}
		colFmt := p.ColFmt
		if colFmt == "" {
			colFmt = "%s"
		}
		colVals := r.axes[colAx].values
		if p.Delta && len(colVals) != 2 {
			return nil, fmt.Errorf("taskdrop: pivot Delta needs exactly 2 column values, axis %q has %d",
				p.Col, len(colVals))
		}
		for _, v := range colVals {
			t.Columns = append(t.Columns, fmt.Sprintf(colFmt, v.label))
		}
		if p.Delta {
			dh := p.DeltaHeader
			if dh == "" {
				dh = "Δ (pp)"
			}
			t.Columns = append(t.Columns, dh)
		}
		for ri, rv := range r.axes[rowAx].values {
			row := []string{fmt.Sprintf(rowFmt, rv.label)}
			means := make([]float64, len(colVals))
			for ci := range colVals {
				st, err := stat(cellAt(ri, ci), metric)
				if err != nil {
					return nil, err
				}
				means[ci] = st.Mean
				row = append(row, st.String())
			}
			if p.Delta {
				row = append(row, fmt.Sprintf("%+.2f", means[0]-means[1]))
			}
			t.Rows = append(t.Rows, row)
		}
		return t, nil
	}

	for _, mc := range p.Columns {
		t.Columns = append(t.Columns, mc.Header)
	}
	for ri, rv := range r.axes[rowAx].values {
		row := []string{fmt.Sprintf(rowFmt, rv.label)}
		for _, mc := range p.Columns {
			st, err := stat(cellAt(ri, -1), mc.Metric)
			if err != nil {
				return nil, err
			}
			row = append(row, st.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
