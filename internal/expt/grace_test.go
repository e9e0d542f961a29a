package expt

import (
	"context"
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
)

// TestHeuristicHoldsUnderGraceWindow runs one paper-scale trial in which
// the heuristic fell off a cliff while its chains truncated at the bare
// deadline: with a 300-tick grace window the engine kept starting tasks
// the forecast priced at nothing, their late starts doomed the tasks
// behind them, and robustness read 0.50 % (52.64 % at grace 150). Every
// dropper that forecasts by Eq. 1 chains must hold its regime; at grace
// 300 they read 52.82 / 54.96 / 52.00 % (heuristic / optimal /
// threshold). The mapper keeps the bare deadline: the same trial read
// 44.16 % for the heuristic when the mapper's chains ran to the droppers'
// horizon too.
func TestHeuristicHoldsUnderGraceWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("one paper-scale trial per cell")
	}
	items, err := SweepFromSpec("profile=spec;mapper=PAM;dropper=heuristic,optimal,threshold;grace=150,300;tasks=30000")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := taskdrop.NewSweep(append(items, taskdrop.SweepTrials(1), taskdrop.SweepSeed(13), taskdrop.SweepScale(1))...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		st, ok := c.Stat(taskdrop.MetricRobustness)
		if !ok {
			t.Fatalf("cell %q has no robustness", c.Label)
		}
		t.Logf("%s: robustness %.2f %%", c.Label, st.Mean)
		if st.Mean < 50 {
			t.Errorf("cell %q: robustness %.2f %%, want at least 50 %%", c.Label, st.Mean)
		}
	}
}
