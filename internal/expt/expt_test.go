package expt

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
)

// tinyOptions keeps harness tests fast: one trial at 1% scale.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Trials = 1
	o.Scale = 0.01
	o.Workers = 2
	return o
}

func TestFigureRegistry(t *testing.T) {
	paper := PaperFigures()
	wantIDs := []string{"fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10", "drops"}
	if len(paper) != len(wantIDs) {
		t.Fatalf("got %d paper figures, want %d", len(paper), len(wantIDs))
	}
	for i, id := range wantIDs {
		if paper[i].ID != id {
			t.Errorf("figure %d = %q, want %q", i, paper[i].ID, id)
		}
		f, ok := ByID(id)
		if !ok || f.ID != id || f.Title == "" {
			t.Errorf("ByID(%q) broken", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("ByID must reject unknown ids")
	}
}

func TestFiguresAreDeclarative(t *testing.T) {
	// Every figure must be a pure declaration: sweep items plus pivots.
	// There is no per-figure runner to forget about — the harness runs
	// everything through one generic path.
	o := tinyOptions()
	for _, f := range All() {
		if f.Items == nil || f.Pivots == nil {
			t.Fatalf("%s is not declarative: Items/Pivots missing", f.ID)
		}
		items := f.Items(o)
		if len(items) == 0 {
			t.Fatalf("%s declares no sweep items", f.ID)
		}
		// The declaration must expand into a valid sweep without running.
		if _, err := taskdrop.NewSweep(append(items, o.sweepItems()...)...); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if len(f.Pivots(o)) == 0 {
			t.Fatalf("%s declares no pivots", f.ID)
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.normalize()
	if o.Trials != 1 || o.Scale != 1 || len(o.Levels) != 3 {
		t.Fatalf("normalized = %+v", o)
	}
}

func TestFigureTableLayoutPreserved(t *testing.T) {
	// The declarative rewrite must keep the published table layouts: same
	// IDs, column headers and row labels as the original harness.
	if testing.Short() {
		t.Skip("figure layout test runs sweeps")
	}
	o := tinyOptions()
	run := func(id string) Table {
		f, ok := ByID(id)
		if !ok {
			t.Fatalf("missing figure %s", id)
		}
		tabs, err := f.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) != 1 {
			t.Fatalf("%s produced %d tables", id, len(tabs))
		}
		return tabs[0]
	}

	fig5 := run("fig5")
	if fig5.ID != "fig5" {
		t.Fatalf("fig5 table ID = %q", fig5.ID)
	}
	if !reflect.DeepEqual(fig5.Columns, []string{"η", "20k tasks", "30k tasks", "40k tasks"}) {
		t.Fatalf("fig5 columns = %v", fig5.Columns)
	}
	for i, want := range []string{"1", "2", "3", "4", "5"} {
		if fig5.Rows[i][0] != want {
			t.Fatalf("fig5 row %d label = %q, want %q", i, fig5.Rows[i][0], want)
		}
	}

	fig7a := run("fig7a")
	if !reflect.DeepEqual(fig7a.Columns, []string{"mapper", "+Heuristic", "+ReactDrop", "Δ (pp)"}) {
		t.Fatalf("fig7a columns = %v", fig7a.Columns)
	}
	if fig7a.Rows[0][0] != "MSD" || fig7a.Rows[2][0] != "PAM" {
		t.Fatalf("fig7a rows = %v", fig7a.Rows)
	}
	for _, row := range fig7a.Rows {
		if !strings.HasPrefix(row[3], "+") && !strings.HasPrefix(row[3], "-") {
			t.Fatalf("fig7a Δ cell %q not signed", row[3])
		}
	}

	fig8 := run("fig8")
	if fig8.Columns[0] != "policy" {
		t.Fatalf("fig8 header = %v", fig8.Columns)
	}
	if fig8.Rows[0][0] != "PAM+Optimal" || fig8.Rows[1][0] != "PAM+Heuristic" || fig8.Rows[2][0] != "PAM+Threshold" {
		t.Fatalf("fig8 rows = %v", fig8.Rows)
	}

	fig9 := run("fig9")
	if fig9.Rows[0][0] != "PAM+Threshold" || fig9.Rows[2][0] != "MinMin+ReactDrop" {
		t.Fatalf("fig9 rows = %v", fig9.Rows)
	}

	drops := run("drops")
	if !reflect.DeepEqual(drops.Columns, []string{"level", "reactive share of drops (%)", "proactive dropped (%)", "reactive dropped (%)"}) {
		t.Fatalf("drops columns = %v", drops.Columns)
	}
	if drops.Rows[0][0] != "20k" {
		t.Fatalf("drops rows = %v", drops.Rows)
	}
}

func TestFigureSmoke(t *testing.T) {
	// Every figure must produce a well-formed table at minimal scale.
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	o := tinyOptions()
	for _, fig := range PaperFigures() {
		tabs, err := fig.Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", fig.ID, err)
		}
		if len(tabs) == 0 {
			t.Fatalf("%s produced no tables", fig.ID)
		}
		for _, tab := range tabs {
			if tab.ID == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s produced malformed table %+v", fig.ID, tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s row width %d != %d columns", fig.ID, len(row), len(tab.Columns))
				}
			}
		}
	}
}

func TestFigureHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f, _ := ByID("fig5")
	if _, err := f.Run(ctx, tinyOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled context = %v, want context.Canceled", err)
	}
}

func TestSweepFromSpec(t *testing.T) {
	items, err := SweepFromSpec("profile=video;mapper=PAM;dropper=reactdrop,heuristic:beta=1.5,eta=3;tasks=2000,3000;baseline=reactdrop")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := taskdrop.NewSweep(append(items, taskdrop.SweepScale(0.05))...)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cells() != 4 {
		t.Fatalf("cells = %d, want 4", sw.Cells())
	}
	res, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The parameterized dropper value must survive the comma-bearing
	// grammar and resolve to the Heuristic with β=1.5, η=3.
	if _, ok := res.Cell("Heuristic"); !ok {
		t.Fatalf("parameterized dropper cell missing: %v", res.Cells)
	}
	var diffs int
	for _, c := range res.Cells {
		if c.VsBaseline != nil {
			diffs++
		}
	}
	if diffs != 2 {
		t.Fatalf("baseline directive produced %d paired comparisons, want 2", diffs)
	}
}

func TestSweepFromSpecAxes(t *testing.T) {
	// Every documented axis key must build.
	for _, g := range []string{
		"profile=video;tasks=100",
		"mapper=PAM,MinMin;tasks=100",
		"dropper=reactdrop|threshold:base=0.3,adaptive;tasks=100",
		"gamma=1,2.5;tasks=100",
		"window=5000;tasks=100",
		"queuecap=2,6;tasks=100",
		"grace=0,150;tasks=100",
		"budget=8,64;tasks=100",
		"shards=1,2,4;tasks=100",
		"router=rr|hash|p2c:seed=3;tasks=100",
		"mtbf=0,10000;tasks=100",
	} {
		items, err := SweepFromSpec(g)
		if err != nil {
			t.Fatalf("%q: %v", g, err)
		}
		if _, err := taskdrop.NewSweep(items...); err != nil {
			t.Fatalf("%q: %v", g, err)
		}
	}
}

func TestSweepFromSpecErrors(t *testing.T) {
	for _, g := range []string{
		"",                      // no axes
		"bogus=1;tasks=100",     // unknown axis key
		"tasks=abc",             // malformed int
		"gamma=x",               // malformed float
		"tasks",                 // missing values
		"tasks=100;tasks=200",   // duplicate axis
		"baseline=a,b;tasks=1",  // multi-value baseline
		"dropper=nope;tasks=10", // unknown dropper surfaces via NewSweep
	} {
		items, err := SweepFromSpec(g)
		if err == nil {
			_, err = taskdrop.NewSweep(items...)
		}
		if err == nil {
			t.Errorf("%q: expected an error", g)
		}
	}
}
