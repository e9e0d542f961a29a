// Command hcload replays a workload trace against a running hcserve
// instance and closes the loop between the paper's offline evaluation and
// the online admission controller: it generates the exact trace the
// offline simulator would run — same (profile, tasks, window, gamma, seed)
// — streams it to POST /v1/decide at a configurable arrival-rate
// multiplier, drains the server, and reports the achieved robustness next
// to client-observed decision latencies.
//
//	hcload -addr http://localhost:8080 -profile spec -tasks 30000 -seed 1 -speed 0
//
// Because the server's decision loop is deterministic, replaying the same
// (profile, trace, seed) yields the same decisions and the same final
// robustness as `hcsim -profile spec -mapper ... -dropper ...` with
// matching settings (boundary exclusion included).
//
// With -churn the replay doubles as a fault-injection harness: a plan like
// "500:remove:3,1500:revive:3" kills machine 3 after 500 tasks and revives
// it after 1500 — fired through POST /v1/admin/machines at deterministic
// decision boundaries — and the summary reports how many requests the
// degraded server shed (429) and for how long.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
	"github.com/hpcclab/taskdrop/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "base URL of the hcserve instance")
		profileSpec = flag.String("profile", "spec", "system profile spec; must match the server's")
		tasks       = flag.Int("tasks", 30000, "number of arriving tasks (oversubscription level)")
		window      = flag.Int64("window", int64(workload.StandardWindow), "arrival window in ms")
		gamma       = flag.Float64("gamma", workload.DefaultGammaSlack, "deadline slack coefficient γ")
		seed        = flag.Int64("seed", 1, "workload seed")
		scale       = flag.Float64("scale", 1.0, "shrink factor in (0,1]: scales tasks and window together")
		batch       = flag.Int("batch", 16, "tasks per decide request")
		speed       = flag.Float64("speed", 0, "arrival-rate multiplier vs the trace clock (1 = real time, 0 = as fast as possible)")
		from        = flag.Int("from", 0, "replay trace tasks starting at this index (resume after a server restart)")
		to          = flag.Int("to", 0, "replay trace tasks up to (excluding) this index; 0 = the end")
		churnPlan   = flag.String("churn", "", "fault-injection plan: comma-separated \"<at>:remove:<machine>[:drop]\" | \"<at>:revive:<machine>\" | \"<at>:add:<shard>:<type>\" fired at task indexes via POST /v1/admin/machines")
		noDrain     = flag.Bool("no-drain", false, "skip POST /v1/drain (leave the server running)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-attempt request timeout")
		retries     = flag.Int("retries", 0, "retry budget per request (transport errors, 5xx and 429); stamps idempotent decision IDs on every request")
		backoff     = flag.Duration("backoff", 50*time.Millisecond, "first retry delay, doubling per attempt with jitter (server Retry-After wins)")
		logFormat   = flag.String("log-format", "text", "log output format: text | json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcload:", err)
		os.Exit(2)
	}
	logger = logger.With("component", "hcload")

	if err := workload.CheckScale(*scale); err != nil {
		logger.Error("bad -scale", "err", err)
		os.Exit(1)
	}
	cfg := workload.Config{TotalTasks: *tasks, Window: pmf.Tick(*window), GammaSlack: *gamma}
	if err := cfg.Validate(); err != nil {
		logger.Error("bad workload config", "err", err)
		os.Exit(1)
	}
	if *scale != 1.0 {
		cfg = cfg.Scaled(*scale)
	}
	// The trace must be bit-identical to the server's view of the system:
	// both sides resolve the profile spec through the deterministic cached
	// PET build, so (profile, seed) alone pins the workload.
	m, err := pet.CachedMatrix(*profileSpec)
	if err != nil {
		logger.Error("profile resolution failed", "profile", *profileSpec, "err", err)
		os.Exit(1)
	}
	churn, err := service.ParseChurnPlan(*churnPlan)
	if err != nil {
		logger.Error("bad -churn", "err", err)
		os.Exit(1)
	}
	tr := workload.Generate(m, cfg, *seed)
	rate := tr.ArrivalRate() * 1000
	fmt.Printf("replaying %d tasks over %.1f s (%.0f tasks/s", tr.Len(), float64(cfg.Window)/1000, rate)
	if *speed > 0 {
		fmt.Printf(", %.0fx speed → %.0f req-tasks/s", *speed, rate**speed)
	} else {
		fmt.Printf(", unpaced")
	}
	fmt.Printf(") against %s\n", *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The retrying client owns per-attempt deadlines; a time-nonced ID
	// prefix keeps separate hcload runs against one server from colliding
	// in its dedup window.
	rep, err := service.Replay(ctx, *addr, tr, service.ReplayConfig{
		BatchSize:        *batch,
		Speed:            *speed,
		Drain:            !*noDrain,
		From:             *from,
		To:               *to,
		Timeout:          *timeout,
		Retries:          *retries,
		Backoff:          *backoff,
		Churn:            churn,
		DecisionIDPrefix: fmt.Sprintf("load-%x", time.Now().UnixNano()),
	})
	if err != nil {
		logger.Error("replay failed", "addr", *addr, "err", err)
		os.Exit(1)
	}

	fmt.Printf("decisions             %d in %s (%.0f tasks/s achieved)\n",
		rep.Tasks, rep.Elapsed.Round(time.Millisecond), float64(rep.Tasks)/rep.Elapsed.Seconds())
	fmt.Printf("  mapped              %d\n", rep.Mapped)
	fmt.Printf("  deferred            %d\n", rep.Deferred)
	fmt.Printf("  dropped at arrival  %d\n", rep.Dropped)
	fmt.Printf("decide latency        p50 %s   p99 %s\n",
		rep.LatencyP50.Round(time.Microsecond), rep.LatencyP99.Round(time.Microsecond))
	if rep.ChurnOps > 0 || rep.Shed429 > 0 {
		fmt.Printf("churn ops             %d\n", rep.ChurnOps)
		fmt.Printf("shed (429) requests   %d\n", rep.Shed429)
		fmt.Printf("degraded window       %s\n", rep.DegradedWindow.Round(time.Millisecond))
	}
	if *retries > 0 {
		fmt.Printf("retried requests      %d\n", rep.Retried)
		fmt.Printf("duplicate acks        %d\n", rep.DuplicateAcks)
	}
	if len(rep.PerShard) > 1 {
		for _, sl := range rep.PerShard {
			fmt.Printf("  backend %d shard %-3d p50 %s   p99 %s   (%d requests)\n",
				sl.Backend, sl.Shard, sl.P50.Round(time.Microsecond), sl.P99.Round(time.Microsecond), sl.Requests)
		}
	}
	if rep.Final != nil {
		fmt.Printf("achieved robustness   %6.2f %% of measured tasks completed on time\n", rep.Final.RobustnessPct)
		fmt.Printf("  on time / late      %d / %d\n", rep.Final.MOnTime, rep.Final.MLate)
		fmt.Printf("  dropped react/proact %d / %d\n", rep.Final.MDroppedReactive, rep.Final.MDroppedProactive)
		fmt.Printf("  total cost          $%.4f\n", rep.Final.TotalCostUSD)
	}
}
