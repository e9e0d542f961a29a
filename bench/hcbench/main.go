// Command hcbench is the repository's benchmark: it builds the real
// hcserve and hcrouter binaries, drives them from one load-generating
// process, checks every answer against an oracle and prints every metric
// by name and unit. See ../README.md for the protocol and the glossary.
//
//	go run -C bench ./hcbench -workload serve-recover -seed 1 -seconds 20 -trace 0
//	go run -C bench ./hcbench                 # all four workloads, rounds interleaved
//	go run -C bench ./hcbench -trace 1 -table # layer ladder + stage runs as the budget table
//	go run -C bench ./hcbench -selfcheck      # the noise acceptance test
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; -trace 0 reports the
// end-to-end metrics of BENCHMARK.json, -trace 1 the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// verbose prints per-round values as they are measured.
var verbose bool

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the result JSON line (default: all four, rounds interleaved)")
		seed         = flag.Int64("seed", 1, "workload seed; reaches trace generation only")
		seconds      = flag.Float64("seconds", defaultSeconds, "measuring time per workload; sets the number of fixed-size rounds")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, servers untraced; 1: per-layer metrics (layer ladder + traced stage rounds)")
		table        = flag.Bool("table", false, "print the latency budget table (implies -trace 1 over serve-recover and fleet-batch16)")
		selfcheck    = flag.Bool("selfcheck", false, "run two alternating sets of the benchmark and compare them with the bounds in BENCHMARK.json")
		runs         = flag.Int("runs", 10, "with -selfcheck: runs per set and workload, seeds 1..runs")
		record       = flag.String("record", "", "append this run's numbers, stamped with host and commit, to a baseline JSON file")
	)
	flag.BoolVar(&verbose, "v", false, "print every round's end-to-end values to standard error")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "hcbench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workloadSpec{w}
	} else if *table {
		selected = nil
		for _, name := range []string{"serve-recover", "fleet-batch16"} {
			w, _ := workloadByName(name)
			selected = append(selected, w)
		}
	}

	benchDir, err := moduleDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		return 1
	}
	e, cleanup, err := prepareEnv(benchDir, filepath.Join(benchDir, ".build"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		return 1
	}
	// Every way out stops the servers and removes the journals: the
	// deferred call covers returns and panics, the handler the signals.
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()
	ctx := context.Background()
	rounds := roundsFor(*seconds)

	switch {
	case *selfcheck:
		bounds, err := loadBounds(filepath.Join(benchDir, "..", "BENCHMARK.json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hcbench:", err)
			return 1
		}
		return runSelfcheck(ctx, e, selected, rounds, *runs, bounds)
	case *trace == 1 || *table:
		return runTraced(ctx, e, selected, *seed, rounds, *workloadName != "", *table)
	}

	sums, code := runEndToEnd(ctx, e, selected, *seed, rounds)
	if *record != "" {
		if err := appendBaseline(*record, benchDir, *seed, rounds, sums); err != nil {
			fmt.Fprintln(os.Stderr, "hcbench:", err)
			return 1
		}
	}
	if *workloadName != "" {
		printResultLine(sums[0], endToEnd, sums[0].e2e)
	}
	return code
}

// moduleDir is the benchmark module's root, two levels above this source
// file: hcbench is always built in place from the checkout it measures.
func moduleDir() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("cannot locate the benchmark's source directory")
	}
	dir := filepath.Dir(filepath.Dir(file))
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return "", fmt.Errorf("benchmark module not found at %s (was hcbench built elsewhere, or with -trimpath?): %w", dir, err)
	}
	return dir, nil
}

// prepareEnv builds hcserve and hcrouter from the checkout's source into
// buildDir/bin and creates this run's scratch directory. The returned
// cleanup stops every live server and removes the scratch directory.
func prepareEnv(benchDir, buildDir string) (*env, func(), error) {
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"github.com/hpcclab/taskdrop/cmd/hcserve", "github.com/hpcclab/taskdrop/cmd/hcrouter")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	buildS := time.Since(t0).Seconds()
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	probe, err := newHostProbe()
	if err != nil {
		return nil, nil, err
	}
	e := &env{
		hcserve:  filepath.Join(bin, "hcserve"),
		hcrouter: filepath.Join(bin, "hcrouter"),
		tmp:      tmp,
		buildS:   buildS,
		probe:    probe,
	}
	return e, func() { killAll(); probe.close(); os.RemoveAll(tmp) }, nil
}

// summary is one workload's run: per-metric medians over its rounds, the
// round quartiles behind them, operation counts and oracle failures.
type summary struct {
	workload  string
	rounds    int
	e2e       map[string]float64
	e2eQ      map[string][2]float64 // first and third quartile over rounds
	layer     map[string]float64
	attempted int
	failed    int
	errs      []error
}

// summarize folds rounds into per-metric medians. Every value is the
// median of the per-round values (for a latency: per-round percentile
// first, then the median of rounds).
func summarize(name string, rounds []roundResult) *summary {
	s := &summary{workload: name, rounds: len(rounds),
		e2e: map[string]float64{}, e2eQ: map[string][2]float64{}, layer: map[string]float64{}}
	e2e, layer := map[string][]float64{}, map[string][]float64{}
	for _, r := range rounds {
		s.attempted += r.attempted
		s.failed += r.failed
		s.errs = append(s.errs, r.errs...)
		for k, v := range r.e2e {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range r.layer {
			layer[k] = append(layer[k], v)
		}
	}
	for k, vs := range e2e {
		q1, _, q3 := quartiles(vs)
		s.e2e[k], s.e2eQ[k] = median(vs), [2]float64{q1, q3}
	}
	for k, vs := range layer {
		s.layer[k] = median(vs)
	}
	s.layer["client.rounds_iqr_pct"] = 100 * iqrShare(e2e["tasks_per_s"])
	s.normalise(rounds)
	// The deterministic metrics must not merely have a stable median: any
	// round that decides differently is a failed oracle.
	for _, k := range exactMetrics {
		for _, v := range e2e[k] {
			if v != e2e[k][0] {
				s.errs = append(s.errs, fmt.Errorf("%s is not the same in every round: %v", k, e2e[k]))
				s.failed++
				break
			}
		}
	}
	return s
}

// hostScaled lists the end-to-end metrics that are times (divided by the
// run's host speed index) or rates (multiplied by it); see probe.go.
var hostScaled = []struct {
	name string
	rate bool
}{{"setup_s", false}, {"tasks_per_s", true}, {"latency_p50_us", false}, {"cpu_us_per_task", false}}

// normalise divides the run's timing medians by its host speed index — the
// median of the rounds' indices — and keeps the raw values and the probe
// readings as per-layer metrics. Rounds measured without probes (tests)
// leave everything as it is.
func (s *summary) normalise(rounds []roundResult) {
	var echo, spin, index []float64
	pinned := false
	for _, r := range rounds {
		if r.host.echoUS > 0 && r.host.spinNS > 0 {
			echo, spin, index = append(echo, r.host.echoUS), append(spin, r.host.spinNS), append(index, r.host.index())
		}
		pinned = pinned || r.pinnedRate
	}
	if len(index) == 0 {
		return
	}
	idx := median(index)
	s.layer["host.echo_us"], s.layer["host.spin_ns"], s.layer["host.index"] = median(echo), median(spin), idx
	for _, m := range hostScaled {
		raw, ok := s.e2e[m.name]
		if !ok {
			continue
		}
		s.layer["raw."+m.name] = raw
		f := 1 / idx
		if m.rate {
			f = idx
			if pinned { // the schedule sets the rate, not the host
				continue
			}
		}
		q := s.e2eQ[m.name]
		s.e2e[m.name], s.e2eQ[m.name] = raw*f, [2]float64{q[0] * f, q[1] * f}
	}
}

// runRounds runs rounds rounds of every runner, interleaved (A B C D A B
// C D ...) so that each workload samples the whole stretch of host time.
// The last round of each workload also verifies its journals.
func runRounds(ctx context.Context, e *env, specs []workloadSpec, rs []runner, rounds int, traced bool) []*summary {
	results := make([][]roundResult, len(rs))
	for i := 0; i < rounds; i++ {
		for w, r := range rs {
			res := e.round(ctx, r, traced, i == rounds-1)
			for _, err := range res.errs {
				fmt.Fprintf(os.Stderr, "hcbench: %s round %d: %v\n", specs[w].name, i+1, err)
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "%s round %d:", specs[w].name, i+1)
				for _, m := range endToEnd {
					fmt.Fprintf(os.Stderr, " %s=%.4g", m.name, res.e2e[m.name])
				}
				fmt.Fprintf(os.Stderr, " host.echo_us=%.4g host.spin_ns=%.4g\n", res.host.echoUS, res.host.spinNS)
			}
			results[w] = append(results[w], res)
		}
	}
	out := make([]*summary, len(rs))
	for w := range rs {
		out[w] = summarize(specs[w].name, results[w])
	}
	return out
}

func newRunners(specs []workloadSpec, e *env, seed int64) ([]runner, error) {
	rs := make([]runner, len(specs))
	for i, spec := range specs {
		if spec.offline {
			rs[i] = &offlineRunner{env: e, seed: seed}
			continue
		}
		r, err := newOnlineRunner(spec, e, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		rs[i] = r
	}
	return rs, nil
}

// runEndToEnd is the untraced benchmark: every selected workload, rounds
// interleaved, end-to-end table on standard output.
func runEndToEnd(ctx context.Context, e *env, specs []workloadSpec, seed int64, rounds int) ([]*summary, int) {
	rs, err := newRunners(specs, e, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		return nil, 1
	}
	sums := runRounds(ctx, e, specs, rs, rounds, false)
	code := 0
	for _, s := range sums {
		printSummary(s)
		if len(s.errs) > 0 {
			code = 1
		}
	}
	return sums, code
}

// printSummary prints one workload's end-to-end metrics by name and unit,
// with the quartiles of the rounds behind each median.
func printSummary(s *summary) {
	fmt.Printf("%s  (%d rounds; %d operations attempted, %d failed)\n", s.workload, s.rounds, s.attempted, s.failed)
	for _, m := range endToEnd {
		q := s.e2eQ[m.name]
		fmt.Printf("  %-22s %14.4f %-4s  rounds q1 %.4f  q3 %.4f\n", m.name, s.e2e[m.name], m.unit, q[0], q[1])
	}
	fmt.Printf("  %-22s %14.2f %-4s\n", "client.rounds_iqr_pct", s.layer["client.rounds_iqr_pct"], "%")
	fmt.Printf("  %-22s %14.4f       (echo %.2f us, spin %.2f ns; timings above are divided by it, raw: %.1f tasks/s, p50 %.1f us, cpu %.1f us/task)\n",
		"host.index", s.layer["host.index"], s.layer["host.echo_us"], s.layer["host.spin_ns"],
		s.layer["raw.tasks_per_s"], s.layer["raw.latency_p50_us"], s.layer["raw.cpu_us_per_task"])
}

// printResultLine ends standard output with the contract's JSON object:
// every listed metric, a missing one as 0 (a layer the workload does not
// run).
func printResultLine(s *summary, defs []metricDef, values map[string]float64) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(s.errs) == 0, s.attempted, s.failed, map[string]value{}}
	for _, m := range defs {
		out.Metrics[m.name] = value{values[m.name], m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Println(string(b))
}

// appendBaseline adds this run to the baseline file: an array of runs,
// each stamped with what is needed to read its numbers.
func appendBaseline(path, benchDir string, seed int64, rounds int, sums []*summary) error {
	type metric struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"rounds_q1"`
		Q3     float64 `json:"rounds_q3"`
		Unit   string  `json:"unit"`
	}
	type run struct {
		Recorded  string                       `json:"recorded"`
		Commit    string                       `json:"commit"`
		Go        string                       `json:"go"`
		NProc     int                          `json:"nproc"`
		Seed      int64                        `json:"seed"`
		Rounds    int                          `json:"rounds"`
		Workloads map[string]map[string]metric `json:"workloads"`
	}
	var all []run
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = benchDir
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	r := run{Recorded: time.Now().UTC().Format(time.RFC3339), Commit: commit, Go: runtime.Version(),
		NProc: runtime.NumCPU(), Seed: seed, Rounds: rounds, Workloads: map[string]map[string]metric{}}
	for _, s := range sums {
		ms := map[string]metric{}
		for _, m := range endToEnd {
			q := s.e2eQ[m.name]
			ms[m.name] = metric{s.e2e[m.name], q[0], q[1], m.unit}
		}
		r.Workloads[s.workload] = ms
	}
	b, err := json.MarshalIndent(append(all, r), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
