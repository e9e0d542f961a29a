package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	taskdrop "github.com/hpcclab/taskdrop"
	"github.com/hpcclab/taskdrop/internal/pet"
)

// sweep-offline: the researcher's use of the repository and the paper's
// own experiment — a paired sweep of the proactive heuristic against the
// reactive baseline at two oversubscription levels. It runs all of
// pmf/core/mapping/sim/runner in this process and none of
// journal/service/front/router.
//
// A batch job has no request, so two end-to-end names read differently
// here (README.md, "Metric glossary"): latency_p50_us is the median trial
// turnaround, and disk_bytes_per_task the size of the result file the
// sweep writes.

const sweepProfile = "spec"

type offlineRunner struct {
	env  *env
	seed int64
	// cells holds the first round's per-cell robustness means: every later
	// round must reproduce them bit for bit.
	cells []float64
}

func (r *offlineRunner) newSweep(onTrial func()) (*taskdrop.Sweep, error) {
	return taskdrop.NewSweep(
		taskdrop.Profiles(sweepProfile),
		taskdrop.Mappers(onlineMapper),
		taskdrop.Droppers("reactdrop", "heuristic"),
		taskdrop.Tasks(sweepLevels...),
		taskdrop.SweepTrials(sweepTrials),
		taskdrop.SweepScale(sweepScale),
		taskdrop.SweepSeed(r.seed),
		taskdrop.SweepWorkers(runtime.NumCPU()),
		taskdrop.Baseline("reactdrop"),
		taskdrop.Each(taskdrop.OnTrialDone(func(int, *taskdrop.Result) { onTrial() })),
	)
}

func (r *offlineRunner) round(ctx context.Context, _, _ bool) roundResult {
	res := roundResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	dir, err := os.MkdirTemp(r.env.tmp, "sweep-offline-")
	if err != nil {
		res.fail("round directory: %v", err)
		return res
	}
	defer os.RemoveAll(dir)

	// Set-up: what a cold process pays before the first trial can start —
	// the PET build (the process-wide cache hides it after the first
	// round, so it is built afresh here) and every trial's trace. Sampled
	// setupRepeats+1 times; the last sweep built is the one that runs.
	var (
		mu        sync.Mutex
		done      []time.Time
		sw        *taskdrop.Sweep
		simulated int
		setups    []float64
	)
	for i := 0; i <= setupRepeats; i++ {
		t0 := time.Now()
		p, err := pet.ProfileFromSpec(sweepProfile)
		if err != nil {
			res.fail("profile: %v", err)
			return res
		}
		pet.Build(p, pet.DefaultProfileSeed, pet.DefaultBuildOptions())
		sw, err = r.newSweep(func() {
			now := time.Now()
			mu.Lock()
			done = append(done, now)
			mu.Unlock()
		})
		if err != nil {
			res.fail("sweep: %v", err)
			return res
		}
		simulated = 0
		for c := 0; c < sw.Cells(); c++ {
			sc, err := sw.Scenario(c)
			if err != nil {
				res.fail("cell %d: %v", c, err)
				return res
			}
			for t := 0; t < sweepTrials; t++ {
				tr, err := sc.Trace(t)
				if err != nil {
					res.fail("trace: %v", err)
					return res
				}
				simulated += tr.Len()
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)
	res.attempted = sw.Cells() * sweepTrials

	if err := resetSelfPeakRSS(); err != nil {
		res.fail("reset peak rss: %v", err)
	}
	cpu0 := selfCPUSeconds()
	start := time.Now()
	out, err := sw.Run(ctx)
	wall := time.Since(start)
	cpu := selfCPUSeconds() - cpu0
	if err != nil {
		res.failed += res.attempted - len(done)
		res.errs = append(res.errs, fmt.Errorf("sweep: %w", err))
		return res
	}
	blob, err := out.JSON()
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "sweep.json"), blob, 0o644)
	}
	if err != nil {
		res.fail("result file: %v", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		res.fail("result size: %v", err)
	}

	// A trial's turnaround: with W workers pulling trials in order, the
	// k-th completion ended a trial that started at the (k-W)-th.
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	workers := min(runtime.NumCPU(), len(done))
	turn := make([]float64, len(done))
	var busy float64
	for k, t := range done {
		from := start
		if k >= workers {
			from = done[k-workers]
		}
		turn[k] = float64(t.Sub(from)) / float64(time.Microsecond)
		busy += turn[k]
	}
	res.layer["runner.parallel_efficiency_pct"] = 100 * busy / (float64(workers) * float64(wall) / float64(time.Microsecond))

	base, ok := out.Cell("ReactDrop", "30k")
	if !ok {
		res.fail("no baseline cell at 30k")
		return res
	}
	baseRob, _ := base.Stat(taskdrop.MetricRobustness)
	tasks := float64(simulated)
	res.e2e["tasks_per_s"] = tasks / wall.Seconds()
	res.e2e["latency_p50_us"] = percentile(turn, 0.50)
	res.e2e["cpu_us_per_task"] = cpu * 1e6 / tasks
	res.e2e["robustness_pct"] = baseRob.Mean
	if res.e2e["peak_rss_mb"], err = peakRSSMB(0); err != nil {
		res.fail("peak rss: %v", err)
	}
	res.e2e["disk_bytes_per_task"] = float64(disk) / tasks
	res.layer["client.latency_p90_us"] = percentile(turn, 0.90)
	res.layer["client.latency_p99_us"] = percentile(turn, 0.99)

	// Oracles: the paper's headline — the heuristic beats the reactive
	// baseline at 30k on paired traces, with a confidence interval that
	// excludes zero — and determinism across rounds.
	heur, ok := out.Cell("Heuristic", "30k")
	if !ok || heur.VsBaseline == nil {
		res.fail("no paired heuristic cell at 30k")
		return res
	}
	if d, _ := heur.VsBaseline.Stat(string(taskdrop.MetricRobustness)); d.Mean-d.CI95 <= 0 {
		res.fail("heuristic - reactdrop at 30k is %+.2f +/- %.2f pp: not a positive paired difference", d.Mean, d.CI95)
	}
	cells := make([]float64, len(out.Cells))
	for i := range out.Cells {
		s, _ := out.Cells[i].Stat(taskdrop.MetricRobustness)
		cells[i] = s.Mean
	}
	if r.cells == nil {
		r.cells = cells
	}
	for i := range cells {
		if cells[i] != r.cells[i] {
			res.fail("cell %s: robustness %.6f differs from the first round's %.6f", out.Cells[i].Label, cells[i], r.cells[i])
		}
	}
	return res
}
