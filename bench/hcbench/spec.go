package main

import (
	"time"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// The benchmark's fixed sizes. Round sizes are constants, never adapted at
// run time: disk_bytes_per_task depends on round length (shard snapshots
// hold the full task history, so bytes per task grow with the task count),
// and an adaptive size would let a faster program measure a different run.
// BENCHMARK.json's run_seconds only sets how many identical rounds fit.

const (
	// defaultSeconds mirrors run_seconds in BENCHMARK.json.
	defaultSeconds = 20
	// nominalRoundSeconds converts -seconds into a round count: every
	// workload's round is sized to roughly this much timed work on the
	// reference host.
	nominalRoundSeconds = 4
	minRounds           = 3

	// Every trace keeps the paper's arrival intensity: 30 000 tasks over
	// the 130 s standard window, with the window scaled to the task count.
	paperTasks = 30000

	onlineProfile = "video"
	onlineMapper  = "PAM"
	onlineDropper = "heuristic"
	queueCap      = 6

	// setupRepeats is the number of extra, throwaway set-ups a round makes
	// so that setup_s — milliseconds of process start — is a median of
	// several samples.
	setupRepeats = 4

	// An open-loop round that ends more than maxOpenOverrun of its schedule
	// plus one VM stall (maxOpenStall) late is taken to have a growing
	// backlog.
	maxOpenOverrun = 1.05
	maxOpenStall   = 100 * time.Millisecond

	// sloLimitUS is the latency limit of client.slo_miss_pct.
	sloLimitUS = 2000
)

// workloadSpec is one workload's shape.
type workloadSpec struct {
	name string
	// tasks is the number of tasks decided per round (online workloads).
	tasks int
	// batch is the number of tasks per decide request.
	batch int
	// cut, when non-zero, is the acknowledged-task count after which the
	// server is killed with SIGKILL and restarted on the same journal.
	cut int
	// openRate, when non-zero, makes the loop open: requests are released
	// at the trace's own arrival times sped up to this mean rate (req/s).
	openRate float64
	// fleet selects hcrouter over two partitioned hcserve backends.
	fleet bool
	// offline selects the in-process sweep; the fields above are unused.
	offline bool
}

var workloads = []workloadSpec{
	{name: "sweep-offline", offline: true},
	{name: "serve-recover", tasks: 12000, batch: 1, cut: 7000},
	{name: "serve-open", tasks: 4000, batch: 1, openRate: 1000},
	{name: "fleet-batch16", tasks: 28000, batch: 16, fleet: true},
}

// Sweep shape of sweep-offline: the paper's own experiment in small.
// 2 droppers x 2 task levels x sweepTrials trials at sweepScale is
// 4 x 4 x (20 000 + 30 000)/2 x 0.125 = 50 000 simulated tasks a round.
const (
	sweepTrials = 4
	sweepScale  = 0.125
)

var sweepLevels = []int{20000, 30000}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// roundsFor converts a measuring time into a round count.
func roundsFor(seconds float64) int {
	return max(minRounds, int(seconds/nominalRoundSeconds+0.5))
}

// traceConfig is the workload shape for n tasks at the paper's intensity.
func traceConfig(n int) workload.Config {
	return workload.Config{
		TotalTasks: n,
		Window:     workload.StandardWindow * pmf.Tick(n) / paperTasks,
		GammaSlack: workload.DefaultGammaSlack,
	}
}

// Metric names. End-to-end metrics are reported by every workload; the
// per-layer list is reported by the traced run (-trace 1). The order here
// is the order of BENCHMARK.json and of every table the harness prints.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"tasks_per_s", "1/s", true},
	{"latency_p50_us", "us", false},
	{"cpu_us_per_task", "us", false},
	{"robustness_pct", "%", true},
	{"peak_rss_mb", "MiB", false},
	{"disk_bytes_per_task", "B", false},
}

var perLayer = []metricDef{
	{"pet.build_ms", "ms", false},
	{"workload.generate_us_per_task", "us", false},
	{"pmf.next_completion_ns", "ns", false},
	{"core.eq1_append_ns", "ns", false},
	{"core.chain6_ns", "ns", false},
	{"core.verdict_heuristic_us", "us", false},
	{"core.verdict_optimal_us", "us", false},
	{"core.chain_hit_pct", "%", true},
	{"core.invalidations_per_task", "count", false},
	{"sim.feed_us_per_task", "us", false},
	{"sim.run_us_per_task", "us", false},
	{"sim.drain_ms", "ms", false},
	{"sim.snapshot_marshal_ms", "ms", false},
	{"sim.snapshot_bytes", "B", false},
	{"journal.append_ns", "ns", false},
	{"journal.commit_us", "us", false},
	{"journal.commit_always_us", "us", false},
	{"journal.checkpoint_ms", "ms", false},
	{"journal.recover_ms", "ms", false},
	{"journal.replay_us_per_record", "us", false},
	{"journal.records_per_task", "count", false},
	{"journal.wal_bytes_per_task", "B", false},
	{"journal.snapshot_bytes_per_task", "B", false},
	{"journal.fsyncs", "count", false},
	{"service.decide1_us", "us", false},
	{"service.decide1_journal_us", "us", false},
	{"service.decide16_us_per_task", "us", false},
	{"service.wire_encode16_us", "us", false},
	{"service.wire_decode16_us", "us", false},
	{"service.http_hop_us", "us", false},
	{"service.verify_us_per_record", "us", false},
	{"router.route_hash_ns", "ns", false},
	{"router.route_p2c_ns", "ns", false},
	{"front.hop_us", "us", false},
	{"runner.parallel_efficiency_pct", "%", true},
	{"runner.trial_ms_p50", "ms", false},
	{"stage.route_us", "us", false},
	{"stage.wait_us", "us", false},
	{"stage.calculus_us", "us", false},
	{"stage.dropper_us", "us", false},
	{"stage.journal_us", "us", false},
	{"stage.ack_us", "us", false},
	{"stage.proxy_us", "us", false},
	{"front.upstream_us", "us", false},
	{"stage.residual_us", "us", false},
	{"trace.overhead_pct", "%", false},
	{"client.latency_p90_us", "us", false},
	{"client.latency_p99_us", "us", false},
	{"client.slo_miss_pct", "%", false},
	{"client.sched_lag_p50_us", "us", false},
	{"client.sched_lag_max_us", "us", false},
	{"client.rounds_iqr_pct", "%", false},
	{"proc.gc_cycles", "count", false},
	{"proc.gc_pause_ms", "ms", false},
	{"harness.build_s", "s", false},
	{"host.echo_us", "us", false},
	{"host.spin_ns", "ns", false},
	{"host.index", "ratio", false},
	{"raw.setup_s", "s", false},
	{"raw.tasks_per_s", "1/s", true},
	{"raw.latency_p50_us", "us", false},
	{"raw.cpu_us_per_task", "us", false},
}
