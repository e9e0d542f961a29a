package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// The noise acceptance test. Two full sets of the benchmark, A and B, on
// identical code: for every seed 1..runs and every workload, one runner
// serves both sets and their rounds alternate (A round, B round, ...), so
// both sample the same host regimes. It then judges the benchmark by the
// rule its bounds are written for: within each set, the quartile distance
// of a metric's per-run values as a share of their median must stay
// within the metric's bound (setup_s excepted), and set B's median may not
// differ from set A's by more than the bound. A deterministic metric must
// read the same in both sets of a run, to the last digit.

// exactMetrics repeat exactly for a given seed.
var exactMetrics = []string{"robustness_pct", "disk_bytes_per_task"}

// loadBounds reads the end-to-end bounds from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range endToEnd {
		if _, ok := bounds[m.name]; !ok {
			return nil, fmt.Errorf("%s: no bound for %s", path, m.name)
		}
	}
	return bounds, nil
}

func runSelfcheck(ctx context.Context, e *env, specs []workloadSpec, rounds, runs int, bounds map[string]float64) int {
	// values[set][workload][metric] holds one value per run.
	var values [2][]map[string][]float64
	for set := range values {
		values[set] = make([]map[string][]float64, len(specs))
		for w := range specs {
			values[set][w] = map[string][]float64{}
		}
	}
	code := 0
	for run := 1; run <= runs; run++ {
		rs, err := newRunners(specs, e, int64(run))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hcbench:", err)
			return 1
		}
		results := make([][2][]roundResult, len(specs))
		for i := 0; i < rounds; i++ {
			for w, r := range rs {
				for set := 0; set < 2; set++ {
					results[w][set] = append(results[w][set], e.round(ctx, r, false, i == rounds-1))
				}
			}
		}
		for w, spec := range specs {
			var s [2]*summary
			for set := 0; set < 2; set++ {
				s[set] = summarize(spec.name, results[w][set])
				for _, err := range s[set].errs {
					fmt.Fprintf(os.Stderr, "hcbench: seed %d %s set %c: %v\n", run, spec.name, 'A'+set, err)
					code = 1
				}
				for _, m := range endToEnd {
					values[set][w][m.name] = append(values[set][w][m.name], s[set].e2e[m.name])
				}
			}
			for _, name := range exactMetrics {
				if a, b := s[0].e2e[name], s[1].e2e[name]; a != b {
					fmt.Fprintf(os.Stderr, "hcbench: seed %d %s: %s differs between the sets: %v vs %v\n", run, spec.name, name, a, b)
					code = 1
				}
			}
			fmt.Fprintf(os.Stderr, "seed %d %s: tasks_per_s A %.1f B %.1f\n", run, spec.name, s[0].e2e["tasks_per_s"], s[1].e2e["tasks_per_s"])
		}
	}

	fmt.Printf("selfcheck: %d runs per set, %d rounds per run\n", runs, rounds)
	fmt.Printf("%-14s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "drift", "bound", "verdict")
	for w, spec := range specs {
		for _, m := range endToEnd {
			a, b := values[0][w][m.name], values[1][w][m.name]
			spreadA, spreadB := iqrShare(a), iqrShare(b)
			drift := worsening(median(a), median(b), m.higher)
			bound := bounds[m.name]
			verdict := "ok"
			if math.Abs(drift) > bound || (m.name != "setup_s" && runs > 1 && max(spreadA, spreadB) > bound) {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				spec.name, m.name, median(a), median(b), 100*spreadA, 100*spreadB, 100*drift, 100*bound, verdict)
		}
	}
	if code == 0 {
		fmt.Println("selfcheck: PASS")
	} else {
		fmt.Println("selfcheck: FAIL")
	}
	return code
}
