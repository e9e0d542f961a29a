package taskdrop_test

import (
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
)

func tinyTrace(s *taskdrop.System, seed int64) *taskdrop.Trace {
	return s.Workload(300, 2000, taskdrop.DefaultGammaSlack, seed)
}

func TestQuickstartFlow(t *testing.T) {
	sys := taskdrop.SPECSystem()
	tr := tinyTrace(sys, 1)
	res, err := sys.Simulate(tr, "PAM", taskdrop.HeuristicDropper())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Total != 300 {
		t.Fatalf("total = %d", res.Total)
	}
}

func TestSystemConstructors(t *testing.T) {
	for _, sys := range []*taskdrop.System{
		taskdrop.SPECSystem(), taskdrop.VideoSystem(), taskdrop.HomogeneousSystem(),
	} {
		if sys.Matrix == nil || sys.Config.QueueCap != 6 {
			t.Fatalf("bad system: %+v", sys)
		}
	}
	if n := len(taskdrop.SPECSystem().Matrix.Machines()); n != 8 {
		t.Fatalf("SPEC machines = %d", n)
	}
}

func TestSimulateUnknownMapper(t *testing.T) {
	sys := taskdrop.VideoSystem()
	if _, err := sys.Simulate(tinyTrace(sys, 1), "not-a-mapper", nil); err == nil {
		t.Fatal("unknown mapper must error")
	}
}

func TestDropperConstructors(t *testing.T) {
	names := map[string]taskdrop.DropPolicy{
		"ReactDrop": taskdrop.ReactiveDropper(),
		"Heuristic": taskdrop.HeuristicDropper(),
		"Optimal":   taskdrop.OptimalDropper(),
		"Threshold": taskdrop.ThresholdDropper(0.25, true),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", p, p.Name(), want)
		}
	}
	if hp := taskdrop.HeuristicDropperWith(2.0, 3); hp.Name() != "Heuristic" {
		t.Error("HeuristicDropperWith broken")
	}
	for _, name := range []string{"reactdrop", "heuristic", "optimal", "threshold"} {
		if _, err := taskdrop.NewDropper(name); err != nil {
			t.Errorf("NewDropper(%q): %v", name, err)
		}
	}
}

func TestMapperRegistryExposed(t *testing.T) {
	names := taskdrop.MapperNames()
	if len(names) < 6 {
		t.Fatalf("MapperNames = %v", names)
	}
	for _, n := range names {
		if _, err := taskdrop.NewMapper(n); err != nil {
			t.Errorf("NewMapper(%q): %v", n, err)
		}
	}
}

func TestProactiveDropperImprovesOversubscribedSystem(t *testing.T) {
	// The paper's headline claim at miniature scale: under
	// oversubscription, PAM+Heuristic completes at least as many tasks on
	// time as PAM+ReactDrop, usually far more. Averaged over a few paired
	// seeds to keep the assertion stable.
	sys := taskdrop.SPECSystem()
	var withDrop, without float64
	for seed := int64(1); seed <= 4; seed++ {
		tr := sys.Workload(2000, 13000, taskdrop.DefaultGammaSlack, seed)
		a, err := sys.Simulate(tr, "PAM", taskdrop.HeuristicDropper())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Simulate(tr, "PAM", taskdrop.ReactiveDropper())
		if err != nil {
			t.Fatal(err)
		}
		withDrop += a.RobustnessPct
		without += b.RobustnessPct
	}
	if withDrop <= without {
		t.Fatalf("proactive dropping did not help: %.1f%% vs %.1f%%", withDrop/4, without/4)
	}
}

func TestCustomMapperPluggable(t *testing.T) {
	sys := taskdrop.VideoSystem()
	tr := tinyTrace(sys, 2)
	res := sys.SimulateWith(tr, greedy{}, taskdrop.HeuristicDropper())
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// greedy is a minimal custom Mapper: first task to first free machine.
type greedy struct{}

func (greedy) Name() string { return "greedy" }

func (greedy) Map(ev *taskdrop.MappingEvent) {
	for len(ev.Batch()) > 0 {
		assigned := false
		for _, m := range ev.Machines() {
			if ev.FreeSlots(m) > 0 {
				ev.Assign(ev.Batch()[0], m)
				assigned = true
				break
			}
		}
		if !assigned {
			return
		}
	}
}
