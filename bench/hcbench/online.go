package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/front"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// env is what every round needs from the harness: the built binaries and
// a scratch directory inside the checkout.
type env struct {
	hcserve, hcrouter string
	tmp               string
	buildS            float64
	probe             *hostProbe
}

// roundResult is one round of one workload: named values for the
// end-to-end and per-layer tables, operation counts and oracle verdicts.
type roundResult struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	errs      []error
	// host is the host-probe reading around the round (env.round).
	host hostSample
	// pinnedRate marks a round whose tasks_per_s is set by the schedule,
	// not by the host: it is never normalised.
	pinnedRate bool
}

func (r *roundResult) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Errorf(format, args...))
	r.failed++
}

// runner is one workload bound to its inputs.
type runner interface {
	// round runs one round against a fresh topology. traced turns the
	// servers' stage tracing on; verify additionally replays the round's
	// journals through service.VerifyAll before they are removed.
	round(ctx context.Context, traced, verify bool) roundResult
}

// onlineRunner drives the three workloads that talk to real servers.
type onlineRunner struct {
	spec workloadSpec
	env  *env
	reqs [][]byte        // encoded decide requests, trace order
	due  []time.Duration // open loop: per-request offset from phase start
	// wantRobustness is the offline oracle: the robustness an in-process
	// run of the same trace and configuration reaches.
	wantRobustness float64
	// profile is what the servers are started with; tests break it on
	// purpose to show that a wrong answer fails the run.
	profile string
}

// newOnlineRunner generates the workload's inputs from the seed — the only
// place the seed reaches — and computes the offline oracle.
func newOnlineRunner(spec workloadSpec, e *env, seed int64) (*onlineRunner, error) {
	m, err := pet.CachedMatrix(onlineProfile)
	if err != nil {
		return nil, err
	}
	tr := workload.Generate(m, traceConfig(spec.tasks), seed)
	reqs, err := encodeRequests(tr, spec.batch)
	if err != nil {
		return nil, err
	}
	r := &onlineRunner{spec: spec, env: e, reqs: reqs, profile: onlineProfile}
	if spec.openRate > 0 {
		// Speed the trace clock up so that this trace's own arrival span
		// lasts tasks/openRate seconds: the offered rate is the same for
		// every seed, the gaps keep the trace's Poisson shape.
		first, last := tr.Tasks[0].Arrival, tr.Tasks[len(tr.Tasks)-1].Arrival
		perTick := float64(len(tr.Tasks)) / spec.openRate / float64(last-first) * float64(time.Second)
		r.due = make([]time.Duration, len(tr.Tasks))
		for i, t := range tr.Tasks {
			r.due[i] = time.Duration(float64(t.Arrival-first) * perTick)
		}
	}
	r.wantRobustness, err = offlineRobustness(m, tr, spec.fleet)
	return r, err
}

// offlineRobustness runs the trace through the in-process simulator under
// the servers' configuration (no boundary exclusion, hcserve's default).
// The fleet's offline twin is a two-shard cluster behind the same
// class-hash router: sim.PartitionMachines deals the machines exactly as
// hcserve -partition k/2 does, so the decisions are the same.
func offlineRobustness(m *pet.Matrix, tr *workload.Trace, fleet bool) (float64, error) {
	cfg := sim.Config{QueueCap: queueCap}
	build := func(int) (sim.Mapper, core.Policy, error) {
		mp, err := mapping.FromSpec(onlineMapper)
		if err != nil {
			return nil, nil, err
		}
		dp, err := core.PolicyFromSpec(onlineDropper)
		return mp, dp, err
	}
	if !fleet {
		mp, dp, err := build(0)
		if err != nil {
			return 0, err
		}
		return sim.New(m, tr, mp, dp, cfg).Run().RobustnessPct, nil
	}
	pol, err := router.FromSpec("hash")
	if err != nil {
		return 0, err
	}
	cl, err := sim.NewCluster(m, 2, pol, build, cfg)
	if err != nil {
		return 0, err
	}
	for i := range tr.Tasks {
		cl.Feed(&tr.Tasks[i])
	}
	return cl.Drain().RobustnessPct, nil
}

// topology is one spawned set of servers.
type topology struct {
	front    *child   // what the client talks to
	backends []*child // the journaling hcserve processes (front included when single)
	roots    []string // their journal roots
}

func (t *topology) all() []*child {
	if t.front == nil || t.front == t.backends[0] {
		return t.backends
	}
	return append([]*child{t.front}, t.backends...)
}

// cpu sums the CPU seconds the topology's live processes have used.
func (t *topology) cpu() (float64, error) {
	var sum float64
	for _, c := range t.all() {
		s, err := cpuSeconds(c.pid())
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// peakRSS sums the peak resident sets (MiB) of the live processes.
func (t *topology) peakRSS() (float64, error) {
	var sum float64
	for _, c := range t.all() {
		mb, err := peakRSSMB(c.pid())
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// stop ends every process with sig.
func (t *topology) stop(sig syscall.Signal) {
	for _, c := range t.all() {
		c.stop(sig)
	}
}

// start spawns the workload's topology over the journal roots under dir
// and waits until the last process answers /readyz. On error nothing it
// started is left running.
func (r *onlineRunner) start(ctx context.Context, dir string, traced bool) (t *topology, err error) {
	t = &topology{}
	defer func() {
		if err != nil {
			t.stop(syscall.SIGKILL)
		}
	}()
	trace := []string{}
	if traced {
		trace = []string{"-trace-sample", "1"}
	}
	serve := func(name, root string, extra ...string) error {
		args := append([]string{"-profile", r.profile, "-mapper", onlineMapper, "-dropper", onlineDropper,
			"-journal-dir", root, "-fsync", "interval", "-log-level", "warn"}, append(trace, extra...)...)
		c, err := spawn(name, r.env.hcserve, args...)
		if err != nil {
			return err
		}
		t.backends, t.roots = append(t.backends, c), append(t.roots, root)
		return nil
	}
	if !r.spec.fleet {
		if err := serve("hcserve", filepath.Join(dir, "j0")); err != nil {
			return t, err
		}
		t.front = t.backends[0]
		return t, t.front.waitReady(ctx)
	}
	var urls []string
	for k := 0; k < 2; k++ {
		part := fmt.Sprintf("%d/2", k)
		if err := serve("hcserve-"+part, filepath.Join(dir, fmt.Sprintf("j%d", k)), "-partition", part); err != nil {
			return t, err
		}
		urls = append(urls, t.backends[k].url())
	}
	for _, c := range t.backends {
		if err := c.waitReady(ctx); err != nil {
			return t, err
		}
	}
	args := append([]string{"-backends", strings.Join(urls, ","), "-profile", r.profile,
		"-router", "hash", "-log-level", "warn"}, trace...)
	if t.front, err = spawn("hcrouter", r.env.hcrouter, args...); err != nil {
		return t, err
	}
	if err := t.front.waitReady(ctx); err != nil {
		return t, err
	}
	return t, waitRotation(ctx, t.front, len(t.backends))
}

// waitRotation polls the router's /v1/stats until every backend is in its
// rotation. hcrouter's /readyz turns 200 with the first backend; traffic
// sent before the second joins is all routed to the first, and the run no
// longer decides what its offline twin decides.
func waitRotation(ctx context.Context, router *child, backends int) error {
	cl := service.NewClient(nil, service.ClientConfig{Timeout: time.Second})
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var st front.StatsResponse
		err := cl.GetJSON(ctx, router.url()+"/v1/stats", &st)
		ready := 0
		for _, b := range st.Backends {
			if b.Ready {
				ready++
			}
		}
		if err == nil && ready == backends {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hcrouter has %d of %d backends in rotation after 15s (last: %v)", ready, backends, err)
		}
	}
}

// drain posts /v1/drain to the front and returns the final accounting.
func drain(ctx context.Context, base string) (*sim.Result, error) {
	var dr service.DrainResponse
	cl := service.NewClient(nil, service.ClientConfig{Timeout: time.Minute})
	if err := cl.PostJSON(ctx, base+"/v1/drain", nil, &dr); err != nil {
		return nil, err
	}
	if dr.Result == nil {
		return nil, fmt.Errorf("drain: no result")
	}
	return dr.Result, nil
}

// round is one round: fresh topology, empty journals, the timed send
// phase(s), drain, teardown, oracles.
func (r *onlineRunner) round(ctx context.Context, traced, verify bool) roundResult {
	res := roundResult{e2e: map[string]float64{}, layer: map[string]float64{}, attempted: len(r.reqs), pinnedRate: r.due != nil}
	dir, err := os.MkdirTemp(r.env.tmp, r.spec.name+"-")
	if err != nil {
		res.fail("round directory: %v", err)
		return res
	}
	defer os.RemoveAll(dir)

	// Set-up is a few milliseconds of process start, so it is sampled
	// several times a round: throwaway topologies first, then the real one.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		scratch := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		t, err := r.start(ctx, scratch, traced)
		if err != nil {
			res.fail("start: %v", err)
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
		t.stop(syscall.SIGKILL)
		if err := os.RemoveAll(scratch); err != nil {
			res.fail("remove %s: %v", scratch, err)
			return res
		}
	}
	t0 := time.Now()
	topo, err := r.start(ctx, dir, traced)
	if err != nil {
		res.fail("start: %v", err)
		return res
	}
	defer func() { topo.stop(syscall.SIGKILL) }()
	res.e2e["setup_s"] = median(append(setups, time.Since(t0).Seconds()))

	// The timed section: one send phase, or two around the crash.
	var (
		lat, lag []float64
		bodies   [][]byte
		wall     time.Duration
		cpu      float64
		rss      float64
	)
	phase := func(lo, hi int, due []time.Duration) bool {
		post, closeConn := newPoster(topo.front.url())
		defer closeConn()
		c0, err := topo.cpu()
		if err != nil {
			res.fail("cpu: %v", err)
			return false
		}
		lr := runLoad(wallClock{}, post, r.reqs[lo:hi], due)
		c1, err := topo.cpu()
		if err != nil {
			res.fail("cpu: %v", err)
			return false
		}
		lat, lag = append(lat, lr.latUS...), append(lag, lr.lagUS...)
		bodies = append(bodies, lr.bodies...)
		wall += lr.wall
		cpu += c1 - c0
		if lr.failed > 0 {
			res.failed += lr.failed
			res.errs = append(res.errs, fmt.Errorf("%d of %d requests failed, first: %w", lr.failed, hi-lo, lr.err))
			return false
		}
		return true
	}
	if r.spec.cut > 0 {
		cutReq := r.spec.cut / r.spec.batch
		if !phase(0, cutReq, nil) {
			return res
		}
		if rss, err = topo.peakRSS(); err != nil {
			res.fail("peak rss: %v", err)
			return res
		}
		topo.stop(syscall.SIGKILL)
		tr0 := time.Now()
		if topo, err = r.start(ctx, dir, traced); err != nil {
			res.fail("restart: %v", err)
			return res
		}
		res.layer["journal.recover_ms"] = float64(time.Since(tr0)) / float64(time.Millisecond)
		if !phase(cutReq, len(r.reqs), nil) {
			return res
		}
	} else if !phase(0, len(r.reqs), r.due) {
		return res
	}

	outerUS := r.scrapeLayers(topo, &res, traced)
	final, err := drain(ctx, topo.front.url())
	if err != nil {
		res.fail("drain: %v", err)
		return res
	}
	rss2, err := topo.peakRSS()
	if err != nil {
		res.fail("peak rss: %v", err)
	}
	rss = max(rss, rss2)
	topo.stop(syscall.SIGTERM)
	disk, err := dirBytes(dir)
	if err != nil {
		res.fail("journal size: %v", err)
	}

	tasks := float64(r.spec.tasks)
	res.e2e["tasks_per_s"] = tasks / wall.Seconds()
	res.e2e["latency_p50_us"] = percentile(lat, 0.50)
	res.e2e["cpu_us_per_task"] = cpu * 1e6 / tasks
	res.e2e["robustness_pct"] = final.RobustnessPct
	res.e2e["peak_rss_mb"] = rss
	res.e2e["disk_bytes_per_task"] = float64(disk) / tasks
	if traced {
		// What the servers' own stage spans do not cover: HTTP and JSON on
		// both sides, the loopback hop and the client. Means add up where
		// medians do not, so it is the client's mean latency that the
		// stage means are taken from.
		var sum float64
		for _, l := range lat {
			sum += l
		}
		res.layer["stage.residual_us"] = sum/float64(len(lat)) - outerUS
	}
	res.layer["client.latency_p90_us"] = percentile(lat, 0.90)
	res.layer["client.latency_p99_us"] = percentile(lat, 0.99)
	miss := 0
	for _, l := range lat {
		if l > sloLimitUS {
			miss++
		}
	}
	res.layer["client.slo_miss_pct"] = 100 * float64(miss) / float64(len(lat))
	if lag != nil {
		res.layer["client.sched_lag_p50_us"] = percentile(lag, 0.50)
		res.layer["client.sched_lag_max_us"] = percentile(lag, 1)
	}

	// Oracles.
	for _, e := range checkAcks(bodies, r.spec.tasks) {
		res.fail("acks: %v", e)
	}
	if final.Total != r.spec.tasks {
		res.fail("drain accounts for %d tasks, want %d", final.Total, r.spec.tasks)
	}
	if final.RobustnessPct != r.wantRobustness {
		res.fail("online robustness %.6f %% differs from the offline run's %.6f %%", final.RobustnessPct, r.wantRobustness)
	}
	if r.due != nil {
		// A server slower than the offered rate finishes late by the
		// shortfall; one stall of the VM (tens of ms, about one round in
		// fifty) or a burst sent late does not.
		offered := r.due[len(r.due)-1].Seconds()
		if wall.Seconds() > maxOpenOverrun*offered+maxOpenStall.Seconds() {
			res.fail("open loop fell behind: %d requests took %.3fs, offered over %.3fs", len(r.reqs), wall.Seconds(), offered)
		}
	}
	if verify {
		for _, root := range topo.roots {
			if _, err := service.VerifyAll(root); err != nil {
				res.fail("journal verify: %v", err)
			}
		}
	}
	return res
}

// scrapeLayers reads the servers' own counters after the timed section:
// journal volume, GC work and — when traced — the stage histograms. It
// returns the summed mean stage time (us) of the process the client talks
// to, the part of a request's latency the servers' spans account for.
func (r *onlineRunner) scrapeLayers(topo *topology, res *roundResult, traced bool) (outerUS float64) {
	tasks := float64(r.spec.tasks)
	var recs, walBytes, fsyncs, gcCycles, gcPause float64
	stageSum, stageCount := map[string]float64{}, map[string]float64{}
	for _, c := range topo.backends {
		p, err := scrape(c.url())
		if err != nil {
			res.fail("scrape %s: %v", c.name, err)
			return 0
		}
		recs += p["taskdrop_journal_records_total"]
		walBytes += p["taskdrop_journal_bytes_total"]
		fsyncs += p["taskdrop_journal_fsyncs_total"]
		gcCycles += p["taskdrop_go_gc_cycles_total"]
		gcPause += p["taskdrop_go_gc_pause_seconds_sum"]
		for _, st := range []string{"route", "wait", "calculus", "dropper", "journal", "ack"} {
			s, n := p.sumCount("taskdrop_decision_stage_latency_seconds", `stage="`+st+`"`)
			stageSum[st] += s
			stageCount[st] += n
		}
	}
	// After a crash the counters restart with the process: they cover the
	// second incarnation only, so volumes are per task of that phase.
	counted := tasks
	if r.spec.cut > 0 {
		counted = tasks - float64(r.spec.cut)
	}
	res.layer["journal.records_per_task"] = recs / counted
	res.layer["journal.wal_bytes_per_task"] = walBytes / counted
	res.layer["journal.fsyncs"] = fsyncs
	res.layer["proc.gc_cycles"] = gcCycles
	res.layer["proc.gc_pause_ms"] = gcPause * 1000
	var snapBytes int64
	for _, root := range topo.roots {
		_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".snap") {
				if info, err := d.Info(); err == nil {
					snapBytes += info.Size()
				}
			}
			return nil
		})
	}
	res.layer["journal.snapshot_bytes_per_task"] = float64(snapBytes) / tasks
	if !traced {
		return 0
	}
	mean := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n * 1e6
	}
	// A stage a request skipped (the dropper, mostly) left no sample, so
	// each stage's time is spread over the traced requests — every one of
	// which has a route span — not over the stage's own sample count.
	for st, sum := range stageSum {
		us := mean(sum, stageCount["route"])
		res.layer["stage."+st+"_us"] = us
		if !r.spec.fleet && st != "dropper" { // the dropper runs inside the calculus stage
			outerUS += us
		}
	}
	if r.spec.fleet {
		p, err := scrape(topo.front.url())
		if err != nil {
			res.fail("scrape hcrouter: %v", err)
			return 0
		}
		_, requests := p.sumCount("taskdrop_decision_stage_latency_seconds", `stage="route"`)
		for _, st := range []string{"route", "proxy", "ack"} {
			sum, _ := p.sumCount("taskdrop_decision_stage_latency_seconds", `stage="`+st+`"`)
			us := mean(sum, requests)
			outerUS += us
			if st == "proxy" {
				res.layer["stage.proxy_us"] = us
			}
		}
		res.layer["front.upstream_us"] = mean(p.sumCount("taskdrop_router_upstream_latency_seconds", ""))
	}
	return outerUS
}
