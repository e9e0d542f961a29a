package sim

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/workload"
)

func TestBreakdownConservation(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 150, BinsPerPMF: 15})
	tr := workload.Generate(m, workload.Config{TotalTasks: 500, Window: 2500, GammaSlack: 2}, 31)
	e := New(m, tr, fifoMapper{}, core.NewHeuristic(), DefaultConfig())
	rec := Record(e)
	res := e.Run()

	types, machines := rec.Breakdown()
	if len(types) != m.NumTaskTypes() {
		t.Fatalf("type breakdowns = %d", len(types))
	}
	if len(machines) != len(m.Machines()) {
		t.Fatalf("machine breakdowns = %d", len(machines))
	}

	var total, onTime, started, mOnTime int
	for _, tb := range types {
		total += tb.Total
		onTime += tb.OnTime
		if sum := tb.OnTime + tb.Late + tb.DroppedReactive + tb.DroppedProactive + tb.Failed; sum != tb.Total {
			t.Fatalf("type %s not conserved: %d vs %d", tb.Name, sum, tb.Total)
		}
	}
	if total != res.Total || onTime != res.OnTime {
		t.Fatalf("type totals %d/%d vs result %d/%d", total, onTime, res.Total, res.OnTime)
	}
	for _, mb := range machines {
		started += mb.Started
		mOnTime += mb.OnTime
		if mb.OnTime > mb.Started {
			t.Fatalf("machine %s ontime %d > started %d", mb.Name, mb.OnTime, mb.Started)
		}
	}
	// Every executed task started on exactly one machine.
	if started != res.OnTime+res.Late+res.Failed {
		t.Fatalf("started %d vs executed %d", started, res.OnTime+res.Late+res.Failed)
	}
	if mOnTime != res.OnTime {
		t.Fatalf("machine on-time %d vs %d", mOnTime, res.OnTime)
	}
}

func TestBreakdownRobustnessPct(t *testing.T) {
	tb := TypeBreakdown{Total: 4, Outcomes: Outcomes{OnTime: 1}}
	if got := tb.RobustnessPct(); got != 25 {
		t.Fatalf("RobustnessPct = %v", got)
	}
	if got := (TypeBreakdown{}).RobustnessPct(); got != 0 {
		t.Fatalf("empty RobustnessPct = %v", got)
	}
}

func TestFprintBreakdown(t *testing.T) {
	m := pet.Build(pet.VideoProfile(), 1, pet.BuildOptions{SamplesPerCell: 100, BinsPerPMF: 10})
	tr := workload.Generate(m, workload.Config{TotalTasks: 100, Window: 1000, GammaSlack: 2}, 32)
	e := New(m, tr, fifoMapper{}, nil, DefaultConfig())
	rec := Record(e)
	e.Run()
	types, machines := rec.Breakdown()
	var b bytes.Buffer
	FprintBreakdown(&b, types, machines)
	out := b.String()
	for _, want := range []string{"per task type:", "per machine:", "reduce-resolution", "GPU"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown output missing %q:\n%s", want, out)
		}
	}
}
