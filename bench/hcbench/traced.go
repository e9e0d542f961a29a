package main

import (
	"context"
	"fmt"
	"os"
	"strings"
)

// The traced run (-trace 1). It never feeds the end-to-end numbers. Part
// one is the layer ladder (ladder.go). Part two is the stage run: each
// selected workload once more in untraced/traced round pairs, the traced
// rounds with the servers' existing -trace-sample 1, scraping /metrics
// after the timed section. The throughput the traced rounds lose against
// their untraced partners is trace.overhead_pct.

// runTraced runs the ladder and the stage rounds, prints every per-layer
// metric by name and unit and, on request, the budget table and the
// contract's result line.
func runTraced(ctx context.Context, e *env, specs []workloadSpec, seed int64, rounds int, resultLine, table bool) int {
	ladder, ladderErrs := runLadder(ctx, e, seed)
	for _, err := range ladderErrs {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
	}
	rs, err := newRunners(specs, e, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		return 1
	}
	// A pair costs two rounds; the ladder has used its share of the time.
	pairs := max(1, rounds/4)
	plain := make([][]roundResult, len(rs))
	traced := make([][]roundResult, len(rs))
	for i := 0; i < pairs; i++ {
		for w, r := range rs {
			last := i == pairs-1
			plain[w] = append(plain[w], e.round(ctx, r, false, last))
			if !specs[w].offline { // the sweep has no servers to trace
				traced[w] = append(traced[w], e.round(ctx, r, true, last))
			}
		}
	}

	code := 0
	if len(ladderErrs) > 0 {
		code = 1
	}
	sums := make([]*summary, len(rs))
	for w, spec := range specs {
		u := summarize(spec.name, plain[w])
		s := &summary{workload: spec.name, rounds: u.rounds, e2e: u.e2e, layer: map[string]float64{},
			attempted: u.attempted, failed: u.failed + len(ladderErrs), errs: append(append([]error(nil), ladderErrs...), u.errs...)}
		for k, v := range ladder {
			s.layer[k] = v
		}
		for k, v := range u.layer {
			s.layer[k] = v
		}
		if len(traced[w]) > 0 {
			t := summarize(spec.name, traced[w])
			s.attempted += t.attempted
			s.failed += t.failed
			s.errs = append(s.errs, t.errs...)
			for k, v := range t.layer {
				if strings.HasPrefix(k, "stage.") || strings.HasPrefix(k, "front.") {
					s.layer[k] = v
				}
			}
			s.layer["trace.overhead_pct"] = 100 * (u.e2e["tasks_per_s"] - t.e2e["tasks_per_s"]) / u.e2e["tasks_per_s"]
			s.layer["traced.latency_p50_us"] = t.layer["raw.latency_p50_us"] // for the table only
		}
		for _, err := range s.errs[len(ladderErrs):] {
			fmt.Fprintf(os.Stderr, "hcbench: %s: %v\n", spec.name, err)
		}
		if len(s.errs) > 0 {
			code = 1
		}
		sums[w] = s
		fmt.Printf("%s  per-layer metrics (%d untraced + %d traced rounds; 0 = a layer this workload does not run)\n",
			s.workload, len(plain[w]), len(traced[w]))
		for _, m := range perLayer {
			fmt.Printf("  %-32s %14.4f %s\n", m.name, s.layer[m.name], m.unit)
		}
	}
	if table {
		printBudget(sums)
	}
	if resultLine {
		printResultLine(sums[0], perLayer, sums[0].layer)
	}
	return code
}

// printBudget prints ROADMAP's latency budget: the ladder from the
// convolution kernel up to the client, each rung with its self time (rung
// minus the rung below), then each stage run with its residual.
func printBudget(sums []*summary) {
	l := sums[0].layer
	fmt.Println()
	fmt.Println("Latency budget of one single-task decision (layer ladder; in-process, video trace; raw us, host index",
		fmt.Sprintf("%.2f)", l["host.index"]))
	fmt.Printf("  %-34s %12s %12s\n", "layer", "rung us", "self us")
	row := func(name string, rung, below float64) {
		fmt.Printf("  %-34s %12.3f %12.3f\n", name, rung, rung-below)
	}
	kernel, eq1, chain := l["pmf.next_completion_ns"]/1e3, l["core.eq1_append_ns"]/1e3, l["core.chain6_ns"]/1e3
	verdict, feed := l["core.verdict_heuristic_us"], l["sim.feed_us_per_task"]
	ctrl, jrnl := l["service.decide1_us"], l["service.decide1_journal_us"]
	hop := jrnl + l["service.http_hop_us"]
	row("kernel (Workspace.NextCompletion)", kernel, 0)
	row("Eq. 1 (Calculus.Append)", eq1, kernel)
	row("chain (CompletionPMFs, 6 slots)", chain, eq1)
	row("verdict (heuristic Decide)", verdict, chain)
	row("feed (Engine.Feed, per task)", feed, 0)
	row("controller (Controller.Decide)", ctrl, feed)
	row("journal (Decide, -fsync interval)", jrnl, ctrl)
	row("backend hop (HTTP+JSON, loopback)", hop, jrnl)
	fmt.Printf("  %-34s %12s %12.3f   per 16-task batch\n", "router hop (Front.Decide)", "", l["front.hop_us"])
	for _, s := range sums {
		if s.workload != "serve-recover" {
			continue
		}
		client := s.layer["raw.latency_p50_us"] // raw, like every rung above
		row("client (serve-recover p50)", client, hop)
		fmt.Printf("  ladder residual: %.3f us of the client's %.3f us are in no rung (client side, scheduling)\n", client-hop, client)
	}
	for _, s := range sums {
		if _, ok := s.layer["traced.latency_p50_us"]; !ok {
			continue
		}
		fmt.Println()
		fmt.Printf("Stage run: %s, -trace-sample 1 (mean us per request as the servers' own spans see it)\n", s.workload)
		for _, st := range []string{"route", "wait", "calculus", "dropper", "journal", "ack", "proxy"} {
			note := ""
			if st == "dropper" {
				note = "   (inside calculus)"
			}
			fmt.Printf("  %-34s %12.3f%s\n", "stage."+st+"_us", s.layer["stage."+st+"_us"], note)
		}
		fmt.Printf("  %-34s %12.3f\n", "front.upstream_us", s.layer["front.upstream_us"])
		fmt.Printf("  %-34s %12.3f\n", "client p50 (traced rounds)", s.layer["traced.latency_p50_us"])
		fmt.Printf("  %-34s %12.3f   client mean latency minus the stages of the process it talks to\n", "stage.residual_us", s.layer["stage.residual_us"])
		fmt.Printf("  %-34s %12.3f %%\n", "trace.overhead_pct", s.layer["trace.overhead_pct"])
	}
}
