// Command hcserve hosts the task-dropping mechanism as a long-running
// online admission controller: an HTTP server that keeps live per-machine
// queue state and answers map/drop/defer for every arriving task through
// the same (mapper, dropper, profile) registry specs as the offline
// tools.
//
//	hcserve -addr :8080 -profile spec -mapper PAM -dropper "heuristic:beta=1.5,eta=3"
//
// With -shards N the machines are partitioned into N independent
// admission shards, each with its own single-writer decision loop, behind
// a routing policy (-router rr|p2c|hash) — the sharded cluster
// architecture that multiplies decision throughput while keeping the
// paper's calculus exact per shard.
//
// Endpoints:
//
//	POST /v1/decide   {"tasks":[{"type":3,"arrival":120,"deadline":890,...}]}
//	POST /v1/drain    graceful drain (all shards concurrently); returns the
//	                  merged final trial Result
//	POST /v1/admin/machines  dynamic membership: {"op":"add|remove|revive",...}
//	                  journaled before acknowledgement
//	GET  /v1/stats    per-shard queue depths, robustness estimates, drop counts
//	GET  /healthz     liveness + served configuration
//	GET  /readyz      readiness: 503 while the server boots (journal
//	                  recovery, shard start), drains, has a failed journal
//	                  or has zero live machines on every shard; 200 once
//	                  serving — the one probe hcrouter gates rotation on
//	GET  /metrics     Prometheus text (decisions/s, drop rate, queue depths,
//	                  decision-latency histogram, per-shard series, calculus
//	                  introspection, Go runtime gauges)
//	GET  /debug/traces  retained stage-timed decision traces (JSON)
//
// The listener binds before the controller boots: during journal recovery
// every endpoint (including /healthz) answers 503 {"status":"booting"},
// so process supervisors and the router tier observe "up but not ready"
// instead of connection refused.
//
// With -partition k/K the server owns only the k-th of K disjoint machine
// partitions of the profile — one process in a multi-process deployment
// fronted by cmd/hcrouter. Decision IDs sent by the router (or any
// client) are remembered in a bounded dedup window (the last 4096) and a
// retried request replays the originally acknowledged bytes.
//
// With -trace-sample N every Nth decision is traced through its stages
// (route → shard mailbox wait → Eq. 1 calculus → dropper verdict → journal
// commit → ack); completed traces land on /debug/traces, feed the
// per-stage latency histograms on /metrics, and — when journaling — are
// appended to the WAL so `hcreplay -decision N` prints the live stage
// timings next to the replayed audit. Sampling off (the default) costs the
// decide path nothing.
//
// With -debug-addr a second listener exposes net/http/pprof under
// /debug/pprof/ plus the same /metrics and /debug/traces, so profiling
// traffic never competes with admission traffic on the main listener. Both
// listeners are served by service.Server, which buffers each answer: a
// pprof profile or trace arrives whole when the capture ends.
//
// Logs are structured (log/slog): -log-format text|json, -log-level
// debug|info|warn|error.
//
// With -journal-dir every admission decision is event-sourced to a
// per-shard write-ahead log (fsync policy -fsync always|interval|never,
// checkpoints every -snapshot-every records): a killed server restarted on
// the same directory recovers its exact pre-crash state by replay, and
// cmd/hcreplay audits or verifies the log offline.
//
// On SIGTERM/SIGINT the server stops accepting work, drains the virtual
// system (flushing a final journal checkpoint so a later restart replays
// nothing), and prints the final robustness accounting before exiting; the
// whole shutdown has 30 s (drainTimeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// drainTimeout is the graceful-shutdown budget: HTTP shutdown plus the
// drain of every shard.
const drainTimeout = 30 * time.Second

// handlerBox wraps the live handler so the boot→serving swap stores one
// concrete type in the atomic.Value.
type handlerBox struct{ h http.Handler }

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		debugAddr     = flag.String("debug-addr", "", "debug listen address: net/http/pprof, /metrics and /debug/traces on a separate server (empty disables)")
		profileSpec   = flag.String("profile", "spec", "system profile spec: spec | video | homog (e.g. spec:seed=7)")
		mapperSpec    = flag.String("mapper", "PAM", "mapping heuristic spec (MinMin, MSD, PAM, FCFS, SJF, EDF, kpb:percent=30, ...)")
		dropperSpec   = flag.String("dropper", "heuristic", "dropping policy spec: reactdrop | heuristic[:beta=..,eta=..] | optimal | threshold[:base=..,adaptive] | approx[:grace=..]")
		shards        = flag.Int("shards", 1, "admission shards (independent decision loops over partitioned machines)")
		partition     = flag.String("partition", "", "own only machine partition k/K of the profile (e.g. 0/2); empty serves the whole matrix")
		routerSpec    = flag.String("router", "rr", "shard-routing policy spec: rr | p2c[:seed=..] | hash[:seed=..]")
		queueCap      = flag.Int("queue", 6, "machine queue capacity incl. running task")
		grace         = flag.Int64("grace", 0, "reactive-drop grace window in ms (approximate-computing extension)")
		dropOnArrival = flag.Bool("drop-on-arrival", false, "engage the proactive dropper on arrival events too (strict Fig. 4)")
		boundary      = flag.Int("boundary", 0, "exclude first/last N tasks from the drain result's measured metrics")
		journalDir    = flag.String("journal-dir", "", "enable the decision journal: per-shard WAL + snapshots under this directory (crash recovery, hcreplay)")
		fsync         = flag.String("fsync", "interval", "journal durability policy: always | interval | never")
		fsyncInterval = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period under -fsync interval")
		snapshotEvery = flag.Int("snapshot-every", 5000, "checkpoint a shard after this many WAL records in a segment (negative: only at drain)")
		traceSample   = flag.Int("trace-sample", 0, "stage-trace every Nth decision by sequence number (0 disables tracing; the last 256 per shard are kept)")
		logFormat     = flag.String("log-format", "text", "log output format: text | json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcserve:", err)
		os.Exit(2)
	}
	logger = logger.With("component", "hcserve")

	// Bind the listener BEFORE booting the controller: journal recovery can
	// take a while, and a probing supervisor (or the router tier's /readyz
	// poll) should see 503 "booting" rather than connection refused. The
	// handler is swapped in atomically once the controller is up.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	var live atomic.Value // of handlerBox: atomic.Value wants one concrete type
	live.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"status":"booting"}`)
	})})
	srv := service.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().(handlerBox).h.ServeHTTP(w, r)
	}))
	errCh := make(chan error, 2)
	go func() { errCh <- srv.Serve(ln) }()

	ctrl, err := service.New(service.Config{
		Profile:           *profileSpec,
		Mapper:            *mapperSpec,
		Dropper:           *dropperSpec,
		Shards:            *shards,
		Partition:         *partition,
		Router:            *routerSpec,
		QueueCap:          *queueCap,
		Grace:             pmf.Tick(*grace),
		DropOnArrival:     *dropOnArrival,
		BoundaryExclusion: *boundary,
		JournalDir:        *journalDir,
		Fsync:             *fsync,
		FsyncInterval:     *fsyncInterval,
		SnapshotEvery:     *snapshotEvery,
		TraceSample:       *traceSample,
		Logger:            logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	m := ctrl.Matrix()
	logger.Info("serving",
		"profile", *profileSpec,
		"mapper", *mapperSpec,
		"dropper", *dropperSpec,
		"machines", ctrl.NumMachines(),
		"task_types", m.NumTaskTypes(),
		"shards", ctrl.NumShards(),
		"partition", *partition,
		"router", *routerSpec,
		"addr", *addr)
	if *journalDir != "" {
		logger.Info("journaling decisions",
			"dir", *journalDir, "fsync", *fsync, "snapshot_every", *snapshotEvery)
	}
	if *traceSample > 0 {
		logger.Info("stage tracing enabled", "sample_every", *traceSample)
	}

	handler := service.NewHandler(ctrl)
	live.Store(handlerBox{handler})

	// The debug server shares the controller's observability surface and
	// adds the pprof handlers. A separate listener keeps profile captures
	// (which can run for tens of seconds) off the admission port.
	var dbg *service.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/debug/pprof/", http.DefaultServeMux) // where net/http/pprof registers
		mux.Handle("/debug/traces", handler)
		mux.Handle("/metrics", handler)
		dbg = service.NewServer(mux)
		logger.Info("debug server listening", "addr", *debugAddr)
		go func() {
			if err := dbg.Serve(dln); err != http.ErrServerClosed {
				errCh <- err
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received; draining")
	case err := <-errCh:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting connections, then run the virtual
	// system to completion and report what the run achieved.
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if dbg != nil {
		if err := dbg.Shutdown(shCtx); err != nil {
			logger.Warn("debug server shutdown", "err", err)
		}
	}
	// If a client already drained via POST /v1/drain, this returns the
	// stored result immediately; the only failure mode left is the
	// drainTimeout budget expiring.
	res, err := ctrl.Drain(shCtx)
	if err != nil {
		logger.Error("drain failed", "err", err)
		os.Exit(1)
	}
	fmt.Printf("drained: %d tasks decided (%.1f/s mean), drop rate %.2f %%\n",
		res.Total, ctrl.DecisionsPerSecond(), 100*ctrl.Metrics().DropRate())
	fmt.Printf("robustness            %6.2f %% of measured tasks completed on time\n", res.RobustnessPct)
	fmt.Printf("completed on time     %d\n", res.MOnTime)
	fmt.Printf("completed late        %d\n", res.MLate)
	fmt.Printf("dropped reactively    %d\n", res.MDroppedReactive)
	fmt.Printf("dropped proactively   %d\n", res.MDroppedProactive)
	fmt.Printf("total cost            $%.4f\n", res.TotalCostUSD)
	fmt.Printf("virtual makespan      %.1f s\n", float64(res.Makespan)/1000)
}
