package taskdrop

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
)

// TestSweepPairedCellsShareTraces is the pairing acceptance test: cells of
// one sweep differing only in policy must see byte-identical traces, and
// the paired-difference CI computed from them must be no wider than the
// independent-samples CI on the same data.
func TestSweepPairedCellsShareTraces(t *testing.T) {
	// Enough trials and tasks that trial-to-trial trace variation (which
	// pairing cancels) dominates: with tiny samples the paired analysis'
	// higher t-critical (df n−1 vs Welch's pooled df) can outweigh weak
	// correlation.
	const trials = 10
	sw, err := NewSweep(
		Profiles("video"),
		Mappers("PAM"),
		Droppers("heuristic", "reactdrop"),
		Tasks(1500),
		Each(WithWindow(10000)),
		SweepTrials(trials),
		SweepSeed(7),
		Baseline("reactdrop"),
	)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := sw.Scenario(0)
	if err != nil {
		t.Fatal(err)
	}
	react, err := sw.Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < trials; trial++ {
		ta, err := heur.Trace(trial)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := react.Trace(trial)
		if err != nil {
			t.Fatal(err)
		}
		ba, err := json.Marshal(ta)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := json.Marshal(tb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("trial %d traces differ between paired cells", trial)
		}
	}
	// Different trials must not share a trace (the pairing is per trial).
	t0, err := heur.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := heur.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	if t0 == t1 {
		t.Fatal("distinct trials returned the same trace")
	}

	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var checked int
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.VsBaseline == nil {
			continue
		}
		base, ok := res.Cell("ReactDrop")
		if !ok {
			t.Fatal("baseline cell missing")
		}
		for _, m := range []Metric{MetricRobustness, MetricNormCost, MetricUtility} {
			paired, _ := c.VsBaseline.Stat(string(m))
			sx, _ := c.Stat(m)
			sy, _ := base.Stat(m)
			// The independent-samples (Welch) CI of the same difference is
			// t·se with t ≥ 1.96 whatever its degrees of freedom: the
			// paired CI must not be wider even than 1.96·se.
			indep := 1.96 * math.Sqrt(sx.StdDev*sx.StdDev/float64(sx.N)+sy.StdDev*sy.StdDev/float64(sy.N))
			if paired.CI95 > indep+1e-9 {
				t.Fatalf("metric %s: paired CI %v wider than the independent CI's floor %v", m, paired.CI95, indep)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no paired comparisons checked")
	}
}

// TestSweepTraceCacheSharesInstances verifies the trace-pairing hook wires
// paired cells to the one trace instance (identity, not just equality).
func TestSweepTraceCacheSharesInstances(t *testing.T) {
	sw, err := NewSweep(
		Profiles("video"),
		Droppers("heuristic", "optimal", "reactdrop"),
		Tasks(200),
		Each(WithWindow(1500)),
		SweepTrials(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2; trial++ {
		first, err := sw.cells[0].sc.Trace(trial)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range sw.cells[1:] {
			tr, err := cell.sc.Trace(trial)
			if err != nil {
				t.Fatal(err)
			}
			if tr != first {
				t.Fatalf("trial %d: cells did not share one trace instance", trial)
			}
		}
	}
	// Run must release the cache — pairing only needs it in flight, and a
	// long-lived Sweep must not pin every generated trace.
	if _, err := sw.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sw.traceMu.Lock()
	cached := len(sw.traces)
	sw.traceMu.Unlock()
	if cached != 0 {
		t.Fatalf("trace cache holds %d traces after Run", cached)
	}
}

// TestPivotRejectsDeserializedResult: a SweepResult rebuilt from JSON has
// no grid geometry, so Pivot must fail cleanly instead of panicking.
func TestPivotRejectsDeserializedResult(t *testing.T) {
	sw, err := NewSweep(
		Profiles("video"),
		Droppers("heuristic", "reactdrop"),
		Tasks(100),
		Each(WithWindow(800)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded SweepResult
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, err := decoded.Pivot(Pivot{Row: "dropper", Col: "tasks"}); err == nil {
		t.Fatal("Pivot on a deserialized result must error")
	}
}
