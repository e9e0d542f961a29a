package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	taskdrop "github.com/hpcclab/taskdrop"
	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/front"
	"github.com/hpcclab/taskdrop/internal/journal"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/router"
	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// The layer ladder: every package's public entry points called in this
// process over one generated video trace, each rung timed from outside —
// no timer is added to the program. The ladder is walked ladderRepeats
// times from bottom to top and a rung's value is the median of its
// repeats, so neighbouring rungs — whose difference is a layer's self time
// in the budget table — are measured moments apart, in the same host
// regime. All values are raw: nothing here is host-normalised.
const (
	ladderTasks   = 4000
	ladderRepeats = 3
	// kernelIters is the call count behind one sample of a nanosecond-
	// scale rung.
	kernelIters = 20000
)

type ladder struct {
	ctx   context.Context
	env   *env
	seed  int64
	m     *pet.Matrix
	tr    *workload.Trace
	specs []service.TaskSpec
	// snapshot is the marshalled engine snapshot of the fed trace, reused
	// as the payload of the journal's checkpoint rung.
	snapshot []byte
	samples  map[string][]float64
	errs     []error
}

func (l *ladder) fail(format string, args ...any) {
	l.errs = append(l.errs, fmt.Errorf("ladder: "+format, args...))
}

// observe records one repeat's value of a rung.
func (l *ladder) observe(name string, v float64) {
	l.samples[name] = append(l.samples[name], v)
}

// dir returns a fresh directory under the run's scratch space.
func (l *ladder) dir() string {
	d, err := os.MkdirTemp(l.env.tmp, "ladder-")
	if err != nil {
		l.fail("%v", err)
	}
	return d
}

// timeOp is fn's duration divided by n, in ns.
func timeOp(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / float64(n)
}

// us and ms convert nanoseconds.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// runLadder fills every in-process per-layer metric.
func runLadder(ctx context.Context, e *env, seed int64) (map[string]float64, []error) {
	m, err := pet.CachedMatrix(onlineProfile)
	if err != nil {
		return nil, []error{err}
	}
	l := &ladder{ctx: ctx, env: e, seed: seed, m: m, samples: map[string][]float64{}}
	for rep := 0; rep < ladderRepeats; rep++ {
		l.setup()
		l.kernels()
		l.engine()
		l.journal()
		l.controller()
		l.routing()
		l.frontHop()
		l.trial()
	}
	// The pool's efficiency needs a whole round of sweep-offline: once.
	r := (&offlineRunner{env: e, seed: seed}).round(ctx, false, false)
	l.errs = append(l.errs, r.errs...)
	out := map[string]float64{
		"harness.build_s":                e.buildS,
		"runner.parallel_efficiency_pct": r.layer["runner.parallel_efficiency_pct"],
	}
	for name, vs := range l.samples {
		out[name] = median(vs)
	}
	return out, l.errs
}

func (l *ladder) setup() {
	l.observe("pet.build_ms", ms(timeOp(1, func() {
		pet.Build(pet.VideoProfile(), pet.DefaultProfileSeed, pet.DefaultBuildOptions())
	})))
	l.observe("workload.generate_us_per_task", us(timeOp(ladderTasks, func() {
		l.tr = workload.Generate(l.m, traceConfig(ladderTasks), l.seed)
	})))
	if l.specs != nil {
		return
	}
	l.specs = make([]service.TaskSpec, len(l.tr.Tasks))
	for i, t := range l.tr.Tasks {
		l.specs[i] = service.TaskSpec{ID: fmt.Sprintf("t%d", t.ID), Type: int(t.Type),
			Arrival: t.Arrival, Deadline: t.Deadline, ExecByType: t.ExecByType}
	}
}

// sinkPMF keeps the kernel rungs' results alive.
var sinkPMF pmf.PMF

// kernels times the calculus from the convolution kernel up to a policy
// verdict, each call cold (the calculus is recycled first, as at a fresh
// mapping event), over a full six-slot queue on machine type 0.
func (l *ladder) kernels() {
	prev := l.m.ExecPMF(0, 0).Shift(100)
	exec := l.m.ExecPMF(3, 0)
	pattern := pmf.Pattern(exec)
	var ws pmf.Workspace
	// The kernel as the calculus calls it: fused convolution + compaction
	// to the default budget, occupancy pattern precomputed.
	l.observe("pmf.next_completion_ns", timeOp(kernelIters, func() {
		for i := 0; i < kernelIters; i++ {
			ws.Reset()
			sinkPMF = ws.NextCompletionCompactPattern(prev, exec, 450, pmf.DefaultMaxImpulses, pattern)
		}
	}))
	calc := core.NewCalculus(l.m)
	l.observe("core.eq1_append_ns", timeOp(kernelIters, func() {
		for i := 0; i < kernelIters; i++ {
			calc.Recycle()
			sinkPMF = calc.Append(prev, 3, 450, 0)
		}
	}))
	queue := []core.QueueTask{
		{Type: 0, Deadline: 400, Running: true, Elapsed: 30},
		{Type: 3, Deadline: 350},
		{Type: 2, Deadline: 420},
		{Type: 1, Deadline: 380},
		{Type: 0, Deadline: 500},
		{Type: 2, Deadline: 460},
	}
	l.observe("core.chain6_ns", timeOp(kernelIters, func() {
		for i := 0; i < kernelIters; i++ {
			calc.Recycle()
			sinkPMF = calc.CompletionPMFs(0, 100, queue)[len(queue)-1]
		}
	}))
	for _, v := range []struct{ name, spec string }{
		{"core.verdict_heuristic_us", "heuristic"}, {"core.verdict_optimal_us", "optimal"},
	} {
		pol, err := core.PolicyFromSpec(v.spec)
		if err != nil {
			l.fail("%v", err)
			continue
		}
		dctx := &core.Context{Calc: calc, Machine: 0, Now: 100, Queue: queue, BatchPressure: 1.5}
		const iters = kernelIters / 10
		l.observe(v.name, us(timeOp(iters, func() {
			for i := 0; i < iters; i++ {
				calc.Recycle()
				_ = pol.Decide(dctx)
			}
		})))
	}
}

func (l *ladder) policies() (sim.Mapper, core.Policy) {
	mp, err := mapping.FromSpec(onlineMapper)
	if err != nil {
		l.fail("%v", err)
	}
	dp, err := core.PolicyFromSpec(onlineDropper)
	if err != nil {
		l.fail("%v", err)
	}
	return mp, dp
}

// engine times the open engine (Feed, snapshot marshal, Drain) and the
// trace-driven loop over the same trace, and reads the chain-cache yield.
func (l *ladder) engine() {
	cfg := sim.Config{QueueCap: queueCap}
	n := len(l.tr.Tasks)
	mp, dp := l.policies()
	eng := sim.NewOpen(l.m, mp, dp, cfg)
	l.observe("sim.feed_us_per_task", us(timeOp(n, func() {
		for i := range l.tr.Tasks {
			eng.Feed(&l.tr.Tasks[i])
		}
	})))
	st := eng.Calc().Stats()
	if tries := st.ChainHits + st.ChainMisses; tries > 0 {
		l.observe("core.chain_hit_pct", 100*float64(st.ChainHits)/float64(tries))
	}
	l.observe("core.invalidations_per_task",
		float64(st.InvalidationsEvent+st.InvalidationsChurn+st.InvalidationsOverflow)/float64(n))
	l.observe("sim.snapshot_marshal_ms", ms(timeOp(1, func() {
		blob, err := json.Marshal(eng.Snapshot())
		if err != nil {
			l.fail("snapshot: %v", err)
		}
		l.snapshot = blob
	})))
	l.observe("sim.snapshot_bytes", float64(len(l.snapshot)))
	var fed, ran *sim.Result
	l.observe("sim.drain_ms", ms(timeOp(1, func() { fed = eng.Drain() })))

	mp, dp = l.policies()
	l.observe("sim.run_us_per_task", us(timeOp(n, func() {
		res, err := sim.New(l.m, l.tr, mp, dp, cfg).RunContext(l.ctx)
		if err != nil {
			l.fail("run: %v", err)
		}
		ran = res
	})))
	// The two event loops must tell the same story about the same trace.
	if ran != nil && (fed.RobustnessPct != ran.RobustnessPct || fed.OnTime != ran.OnTime) {
		l.fail("Feed+Drain reaches %.6f %% robustness, the trace-driven run %.6f %%", fed.RobustnessPct, ran.RobustnessPct)
	}
}

// journal times the WAL writer alone: the two records a decision appends,
// the commit under both durability policies, a checkpoint and a replay.
func (l *ladder) journal() {
	n := len(l.tr.Tasks)
	arrive := make([]journal.Record, n)
	decide := make([]journal.Record, n)
	for i, t := range l.tr.Tasks {
		arrive[i] = journal.Record{Kind: journal.KindArrive, Seq: int64(i), Tick: t.Arrival, Deadline: t.Deadline,
			Type: int32(t.Type), Exec: t.ExecByType, ID: l.specs[i].ID}
		decide[i] = journal.Record{Kind: journal.KindDecision, Seq: int64(i), Action: journal.ActMap, Machine: int32(i % 8), Tick: t.Arrival}
	}
	open := func(dir string, p journal.SyncPolicy) *journal.Writer {
		w, err := journal.OpenWriter(dir, journal.WriterOptions{Policy: p})
		if err != nil {
			l.fail("%v", err)
		}
		return w
	}
	check := func(err error) {
		if err != nil {
			l.fail("journal: %v", err)
		}
	}
	// Append alone: every record buffered, one commit at the end.
	replayDir := l.dir()
	l.observe("journal.append_ns", timeOp(2*n, func() {
		w := open(replayDir, journal.SyncInterval)
		for i := 0; i < n; i++ {
			check(w.Append(&arrive[i]))
			check(w.Append(&decide[i]))
		}
		check(w.Commit())
		check(w.Close())
	}))
	l.observe("journal.replay_us_per_record", us(timeOp(2*n, func() {
		rec, err := journal.Recover(replayDir)
		check(err)
		got := 0
		check(rec.Replay(replayDir, func(*journal.Record) error { got++; return nil }))
		if got != 2*n {
			l.fail("replay read %d records, want %d", got, 2*n)
		}
	})))
	// What one acknowledged decision pays: two appends and a commit.
	cycle := func(w *journal.Writer, count int) func() {
		return func() {
			for i := 0; i < count; i++ {
				check(w.Append(&arrive[i]))
				check(w.Append(&decide[i]))
				check(w.Commit())
			}
		}
	}
	w := open(l.dir(), journal.SyncInterval)
	l.observe("journal.commit_us", us(timeOp(n, cycle(w, n))))
	l.observe("journal.checkpoint_ms", ms(timeOp(1, func() { check(w.Checkpoint(l.snapshot)) })))
	check(w.Close())
	const always = 200 // an fdatasync each: bounded by the device, so few
	w = open(l.dir(), journal.SyncAlways)
	l.observe("journal.commit_always_us", us(timeOp(always, cycle(w, always))))
	check(w.Close())
}

// listen serves h on a fresh loopback port until the returned stop.
func (l *ladder) listen(h http.Handler) (base string, stop func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.fail("%v", err)
		return "", func() {}
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}
}

// controller times service.Controller.Decide with and without the journal
// and batched, the JSON codec of one 16-task exchange, the loopback HTTP
// hop in front of the controller, and the journal verifier.
func (l *ladder) controller() {
	n := len(l.specs)
	var lastResp *service.DecideResponse
	// decide times one pass of the trace through a fresh controller, in
	// batches; only the Decide loop is timed.
	decide := func(journalDir string, batch int) float64 {
		c, err := service.New(service.Config{Profile: onlineProfile, Mapper: onlineMapper, Dropper: onlineDropper,
			JournalDir: journalDir, Fsync: "interval"})
		if err != nil {
			l.fail("%v", err)
			return 0
		}
		per := timeOp(n, func() {
			for lo := 0; lo < n; lo += batch {
				resp, err := c.Decide(l.ctx, &service.DecideRequest{Tasks: l.specs[lo:min(lo+batch, n)]})
				if err != nil {
					l.fail("decide: %v", err)
					return
				}
				lastResp = resp
			}
		})
		if err := c.Close(); err != nil {
			l.fail("close: %v", err)
		}
		return per
	}
	decide1 := decide("", 1)
	l.observe("service.decide1_us", us(decide1))
	dir := l.dir()
	l.observe("service.decide1_journal_us", us(decide(dir, 1)))
	t0 := time.Now()
	if st, err := service.VerifyShard(dir, 0); err != nil {
		l.fail("verify: %v", err)
	} else {
		l.observe("service.verify_us_per_record", us(float64(time.Since(t0))/float64(st.Records)))
	}
	l.observe("service.decide16_us_per_task", us(decide("", 16)))

	// One 16-task exchange costs two encodes (request by the client,
	// response by the server) and two decodes.
	req := &service.DecideRequest{Tasks: l.specs[:16]}
	reqJSON, _ := json.Marshal(req)
	respJSON, _ := json.Marshal(lastResp)
	const iters = 2000
	l.observe("service.wire_encode16_us", us(timeOp(iters, func() {
		for i := 0; i < iters; i++ {
			_, _ = json.Marshal(req)
			_, _ = json.Marshal(lastResp)
		}
	})))
	l.observe("service.wire_decode16_us", us(timeOp(iters, func() {
		for i := 0; i < iters; i++ {
			var rq service.DecideRequest
			dec := json.NewDecoder(bytes.NewReader(reqJSON))
			dec.DisallowUnknownFields()
			_ = dec.Decode(&rq)
			var rs service.DecideResponse
			_ = json.Unmarshal(respJSON, &rs)
		}
	})))

	// The HTTP hop: the same single-task decisions through NewHandler over
	// loopback, minus the controller's own time a moment ago.
	reqs, err := encodeRequests(l.tr, 1)
	if err != nil {
		l.fail("%v", err)
		return
	}
	reqs = reqs[:n/2]
	c, err := service.New(service.Config{Profile: onlineProfile, Mapper: onlineMapper, Dropper: onlineDropper})
	if err != nil {
		l.fail("%v", err)
		return
	}
	base, stop := l.listen(service.NewHandler(c))
	post, closeConn := newPoster(base)
	lr := runLoad(wallClock{}, post, reqs, nil)
	if lr.failed > 0 {
		l.fail("http hop: %v", lr.err)
	}
	l.observe("service.http_hop_us", us(float64(lr.wall)/float64(len(reqs))-decide1))
	closeConn()
	stop()
	if err := c.Close(); err != nil {
		l.fail("close: %v", err)
	}
}

// routing times one Policy.Route over two shard views.
func (l *ladder) routing() {
	nt := l.m.NumTaskTypes()
	views := []*router.ShardView{router.NewShardView(nt), router.NewShardView(nt)}
	for _, v := range []struct{ name, spec string }{{"router.route_hash_ns", "hash"}, {"router.route_p2c_ns", "p2c"}} {
		pol, err := router.FromSpec(v.spec)
		if err != nil {
			l.fail("%v", err)
			continue
		}
		const iters = 10 * kernelIters
		sink := 0
		l.observe(v.name, timeOp(iters, func() {
			for i := 0; i < iters; i++ {
				sink += pol.Route(router.Task{Class: i % nt, Arrival: pmf.Tick(i), Deadline: pmf.Tick(i + 400)}, views)
			}
		}))
		_ = sink
	}
}

// timedHandler remembers how long its last /v1/decide took.
type timedHandler struct {
	h    http.Handler
	last atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/decide" {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.last.Store(int64(time.Since(t0)))
}

// frontHop times front.Front.Decide over two in-process partition
// backends on loopback, 16-task batches, minus the slower backend's own
// handler time: what the router tier adds to a request.
func (l *ladder) frontHop() {
	n := len(l.specs)
	var (
		urls     []string
		handlers []*timedHandler
		stops    []func()
		ctrls    []*service.Controller
	)
	defer func() {
		var wg sync.WaitGroup
		for k := range ctrls {
			stops[k]()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = ctrls[k].Close() // a drain of a throwaway backend
			}()
		}
		wg.Wait()
	}()
	for k := 0; k < 2; k++ {
		c, err := service.New(service.Config{Profile: onlineProfile, Mapper: onlineMapper, Dropper: onlineDropper,
			Partition: fmt.Sprintf("%d/2", k)})
		if err != nil {
			l.fail("%v", err)
			return
		}
		th := &timedHandler{h: service.NewHandler(c)}
		base, stop := l.listen(th)
		urls, handlers, stops, ctrls = append(urls, base), append(handlers, th), append(stops, stop), append(ctrls, c)
	}
	f, err := front.New(front.Config{Backends: urls, Profile: onlineProfile, Poll: 20 * time.Millisecond})
	if err != nil {
		l.fail("%v", err)
		return
	}
	defer f.Close()
	for deadline := time.Now().Add(5 * time.Second); f.NumReady() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			l.fail("front: backends not ready")
			return
		}
	}
	var sum float64
	batches := 0
	for lo := 0; lo+16 <= n; lo += 16 {
		for _, th := range handlers {
			th.last.Store(0)
		}
		t0 := time.Now()
		if _, err := f.Decide(l.ctx, &service.DecideRequest{Tasks: l.specs[lo : lo+16]}); err != nil {
			l.fail("front decide: %v", err)
			return
		}
		sum += float64(time.Since(t0)) - float64(max(handlers[0].last.Load(), handlers[1].last.Load()))
		batches++
	}
	l.observe("front.hop_us", us(sum/float64(batches)))
}

// trial times one trial of sweep-offline's heaviest cell on one worker.
func (l *ladder) trial() {
	sc, err := taskdrop.NewScenario(sweepProfile,
		taskdrop.WithMapper(onlineMapper), taskdrop.WithDropper("heuristic"),
		taskdrop.WithTasks(int(30000*sweepScale)), taskdrop.WithWindow(pmf.Tick(float64(workload.StandardWindow)*sweepScale)),
		taskdrop.WithSeed(l.seed), taskdrop.WithWorkers(1))
	if err != nil {
		l.fail("%v", err)
		return
	}
	sc.Matrix() // the PET build is set-up, not a trial
	l.observe("runner.trial_ms_p50", ms(timeOp(1, func() {
		if _, err := sc.Run(l.ctx); err != nil {
			l.fail("trial: %v", err)
		}
	})))
}
