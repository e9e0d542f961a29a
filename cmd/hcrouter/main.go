// Command hcrouter is the router tier of a multi-process deployment: a
// standalone front-end that speaks the same HTTP protocol as a single
// hcserve and fans every decide batch out across N shard-server
// processes, each owning one machine partition of the profile.
//
//	hcserve -addr :8081 -partition 0/2 -journal-dir /var/lib/taskdrop/b0 &
//	hcserve -addr :8082 -partition 1/2 -journal-dir /var/lib/taskdrop/b1 &
//	hcrouter -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//
// The router partitions by task class: every task of a class goes to the
// class's home backend (-router hash[:seed=N], the only spec accepted), and
// to the next backend up only while that home is down. Its one probe of a
// backend is /readyz, 503 while the backend can admit nothing (every shard
// at zero live machines included), and it mirrors no backend load. A
// backend that fails mid-request has its sub-batches rerouted.
// Per-backend in-flight windows (-window) shed excess load with 429 +
// Retry-After instead of queueing.
//
// The router holds no identity of its own: a sub-request's decision ID is
// derived from the client's DecisionID, the backend and the slots it
// carries, so a client's same-ID retry through a restarted router replays
// the backends' journaled decisions while its classes' home backends are
// up (internal/front, "Fault model").
//
// Endpoints match hcserve: POST /v1/decide, POST /v1/drain (fleet drain,
// merged Result), GET /v1/stats (per-backend rotation state), /healthz,
// /readyz (200 once every backend has been polled and >= 1 is in
// rotation; 503 "no-backends" when none is), /metrics
// (taskdrop_router_* families), /debug/traces.
//
// The listener is served by service.Server, as hcserve's is: a goroutine
// per client connection, and none started per request.
//
// On SIGTERM/SIGINT the router stops its listener and pollers and exits.
// It does NOT drain the backends — a router restart must not destroy
// fleet state; drain explicitly via POST /v1/drain (hcload -drain).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hpcclab/taskdrop/internal/front"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		backends    = flag.String("backends", "", "comma-separated backend base URLs, http://host:port (required), e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
		profileSpec = flag.String("profile", "spec", "system profile spec; must match every backend's")
		routerSpec  = flag.String("router", "hash", "backend-routing policy spec; the router partitions by task class: hash[:seed=N] only")
		window      = flag.Int("window", 32, "max in-flight decide sub-requests per backend (excess sheds with 429)")
		poll        = flag.Duration("poll", 250*time.Millisecond, "backend /readyz polling period")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-attempt upstream request timeout")
		retries     = flag.Int("retries", 2, "upstream retry budget per sub-request (same backend, same decision ID; 0 = none)")
		backoff     = flag.Duration("backoff", 50*time.Millisecond, "first upstream retry delay (doubles per attempt, jittered)")
		traceSample = flag.Int("trace-sample", 0, "stage-trace every Nth routed request (0 disables; the last 256 are kept)")
		logFormat   = flag.String("log-format", "text", "log output format: text | json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcrouter:", err)
		os.Exit(2)
	}
	logger = logger.With("component", "hcrouter")

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "hcrouter: -backends is required")
		os.Exit(2)
	}

	// front.Config reads a zero Retries as "use the default"; on the command
	// line the default is spelled out, so an explicit 0 means none.
	if *retries == 0 {
		*retries = -1
	}
	f, err := front.New(front.Config{
		Backends:    urls,
		Profile:     *profileSpec,
		Router:      *routerSpec,
		Window:      *window,
		Poll:        *poll,
		Timeout:     *timeout,
		Retries:     *retries,
		Backoff:     *backoff,
		TraceSample: *traceSample,
		Logger:      logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	defer f.Close()

	logger.Info("routing",
		"profile", *profileSpec,
		"router", *routerSpec,
		"backends", len(urls),
		"window", *window,
		"addr", *addr)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := service.NewServer(front.NewHandler(f))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received; shutting down")
	case err := <-errCh:
		logger.Error("server failed", "err", err)
		os.Exit(1)
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
}
