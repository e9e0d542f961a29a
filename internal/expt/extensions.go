package expt

import (
	"fmt"

	taskdrop "github.com/hpcclab/taskdrop"
	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/sim"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// Extension experiments beyond the paper's evaluation: the ablations
// DESIGN.md commits to, plus the two future-work directions of §VI
// (machine failures, approximate computing). They are declared exactly
// like the paper figures — axes plus pivots over the public Sweep API —
// and run through the same harness: `hcexp -fig ext-gamma`, etc.

// Extensions returns the extension experiments, after the paper figures in
// hcexp's registry.
func Extensions() []Figure {
	return []Figure{
		{
			ID:     "ext-gamma",
			Title:  "Ablation: deadline slack γ vs robustness (PAM ± proactive dropping, 30k tasks)",
			Items:  extGammaItems,
			Pivots: extGammaPivots,
		},
		{
			ID:     "ext-queue",
			Title:  "Ablation: machine queue capacity vs robustness (PAM+Heuristic, 30k tasks)",
			Items:  extQueueItems,
			Pivots: extQueuePivots,
		},
		{
			ID:     "ext-budget",
			Title:  "Ablation: PMF compaction budget vs robustness (PAM+Heuristic, 30k tasks)",
			Items:  extBudgetItems,
			Pivots: extBudgetPivots,
		},
		{
			ID:    "ext-mappers",
			Title: "Extension: all mapping heuristics ± proactive dropping (30k tasks)",
			Items: func(o Options) []taskdrop.SweepItem {
				return gridItems("spec", middleLevel(o.Levels),
					[]string{"MinMin", "MSD", "PAM", "FCFS", "SJF", "EDF", "MET", "KPB"})
			},
			Pivots: func(o Options) []taskdrop.Pivot {
				return gridPivots("spec", middleLevel(o.Levels))
			},
		},
		{
			ID:     "ext-failures",
			Title:  "Extension (§VI future work): robustness under machine failures",
			Items:  extFailuresItems,
			Pivots: extFailuresPivots,
		},
		{
			ID:     "ext-approx",
			Title:  "Extension (§VI future work): approximate computing — utility vs grace window",
			Items:  extApproxItems,
			Pivots: extApproxPivots,
		},
	}
}

// extGammaItems sweeps the deadline slack coefficient. Tight deadlines
// make proactive dropping essential; loose ones shrink its edge.
func extGammaItems(o Options) []taskdrop.SweepItem {
	return []taskdrop.SweepItem{
		taskdrop.Profiles("spec"),
		taskdrop.Mappers("PAM"),
		taskdrop.Gammas(1, 2, 3, 4, 5).Named("γ"),
		taskdrop.Droppers("heuristic", "reactdrop"),
		taskdrop.Tasks(middleLevel(o.Levels)),
		taskdrop.Baseline("reactdrop"),
	}
}

func extGammaPivots(Options) []taskdrop.Pivot {
	return []taskdrop.Pivot{{
		Title:       "Tasks completed on time (%) vs deadline slack γ (PAM, 30k tasks)",
		Row:         "γ",
		Col:         "dropper",
		ColFmt:      "+%s",
		Metric:      taskdrop.MetricRobustness,
		Delta:       true,
		DeltaHeader: "Δ (pp)",
	}}
}

// extQueueItems sweeps the machine queue bound. Longer queues compound
// completion-time uncertainty (§III motivates the limited queue), so
// robustness should flatten or dip as capacity grows.
func extQueueItems(o Options) []taskdrop.SweepItem {
	return []taskdrop.SweepItem{
		taskdrop.Profiles("spec"),
		taskdrop.Mappers("PAM"),
		taskdrop.Droppers("heuristic"),
		taskdrop.QueueCaps(2, 4, 6, 8, 12),
		taskdrop.Tasks(middleLevel(o.Levels)),
	}
}

func extQueuePivots(Options) []taskdrop.Pivot {
	return []taskdrop.Pivot{{
		Title:     "Tasks completed on time (%) vs queue capacity (PAM+Heuristic, 30k tasks)",
		Row:       "queuecap",
		RowHeader: "queue capacity",
		Columns: []taskdrop.MetricColumn{
			{Header: "robustness (%)", Metric: taskdrop.MetricRobustness},
			{Header: "proactive dropped (%)", Metric: taskdrop.MetricProactivePct},
		},
	}}
}

// extBudgetItems sweeps the calculus' impulse budget: the accuracy side
// of the compaction ablation (bench_test.go measures the speed side).
func extBudgetItems(o Options) []taskdrop.SweepItem {
	return []taskdrop.SweepItem{
		taskdrop.Profiles("spec"),
		taskdrop.Mappers("PAM"),
		taskdrop.Droppers("heuristic"),
		taskdrop.Budgets(8, 16, 32, 64),
		taskdrop.Tasks(middleLevel(o.Levels)),
	}
}

func extBudgetPivots(Options) []taskdrop.Pivot {
	return []taskdrop.Pivot{{
		Title:     "Tasks completed on time (%) vs PMF compaction budget (PAM+Heuristic, 30k tasks)",
		Row:       "budget",
		RowHeader: "max impulses",
		Columns: []taskdrop.MetricColumn{
			{Header: "robustness (%)", Metric: taskdrop.MetricRobustness},
		},
	}}
}

// extFailuresItems sweeps machine failure intensity (§VI future work:
// "resource failure" uncertainty). MTBF is per machine; repairs average a
// tenth of the MTBF.
func extFailuresItems(o Options) []taskdrop.SweepItem {
	mtbfs := []pmf.Tick{0, 20000, 10000, 5000}
	fcs := make([]sim.FailureConfig, len(mtbfs))
	labels := make([]string, len(mtbfs))
	for i, mtbf := range mtbfs {
		labels[i] = "no failures"
		if mtbf > 0 {
			fcs[i] = sim.FailureConfig{MTBF: mtbf, MeanRepair: mtbf / 10, Seed: 1000}
			labels[i] = fmt.Sprintf("%.0f", float64(mtbf)/1000)
		}
	}
	return []taskdrop.SweepItem{
		taskdrop.Profiles("spec"),
		taskdrop.Mappers("PAM"),
		taskdrop.FailurePlans(fcs...).Named("mtbf").As(labels...),
		taskdrop.Droppers("heuristic", "reactdrop"),
		taskdrop.Tasks(middleLevel(o.Levels)),
	}
}

func extFailuresPivots(Options) []taskdrop.Pivot {
	return []taskdrop.Pivot{{
		Title:     "Tasks completed on time (%) under machine failures (PAM, 30k tasks; repair = MTBF/10)",
		Row:       "mtbf",
		RowHeader: "MTBF (s)",
		Col:       "dropper",
		ColFmt:    "+%s",
		Metric:    taskdrop.MetricRobustness,
	}}
}

// extApproxItems compares the strict-deadline heuristic against the
// utility-driven ApproxHeuristic across grace windows, scoring both by
// realized utility (§VI future work: approximately computing tasks). The
// "approx" spec follows the engine's grace automatically, so grace and
// policy are independent axes — the grace axis moves both the engine's
// leeway and the approximate policy's value ramp together. Windows scale
// with the workload's mean deadline slack: γ·100 ms is a stable proxy for
// the SPEC system's (1+γ)·130 ms mean slack.
func extApproxItems(o Options) []taskdrop.SweepItem {
	fractions := []float64{0, 0.25, 0.5, 1.0}
	graces := make([]pmf.Tick, len(fractions))
	for i, f := range fractions {
		graces[i] = pmf.Tick(f * workload.DefaultGammaSlack * 100)
	}
	return []taskdrop.SweepItem{
		taskdrop.Profiles("spec"),
		taskdrop.Mappers("PAM"),
		taskdrop.Graces(graces...),
		taskdrop.Droppers("approx", "heuristic"),
		taskdrop.Tasks(middleLevel(o.Levels)),
	}
}

func extApproxPivots(Options) []taskdrop.Pivot {
	return []taskdrop.Pivot{{
		Title:       "Realized utility (%) vs grace window (PAM, 30k tasks; both policies scored with the same grace)",
		Row:         "grace",
		RowHeader:   "grace (ms)",
		Col:         "dropper",
		Metric:      taskdrop.MetricUtility,
		Delta:       true,
		DeltaHeader: "Δ (pp)",
	}}
}
