package taskdrop_test

import (
	"context"
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
)

// oneTrial runs a single seeded trial of a small scenario and returns its
// Result.
func oneTrial(t *testing.T, profile string, tasks int, window taskdrop.Tick, seed int64, opts ...taskdrop.ScenarioOption) *taskdrop.Result {
	t.Helper()
	base := []taskdrop.ScenarioOption{taskdrop.WithTasks(tasks), taskdrop.WithWindow(window), taskdrop.WithSeed(seed)}
	sc, err := taskdrop.NewScenario(profile, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rr.Trials[0]
}

func TestQuickstartFlow(t *testing.T) {
	res := oneTrial(t, "spec", 300, 2000, 1, taskdrop.WithMapper("PAM"), taskdrop.WithDropper("heuristic"))
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Total != 300 {
		t.Fatalf("total = %d", res.Total)
	}
}

func TestSystemConstructors(t *testing.T) {
	for _, profile := range taskdrop.ProfileNames() {
		sc, err := taskdrop.NewScenario(profile)
		if err != nil {
			t.Fatal(err)
		}
		if m := sc.Matrix(); m == nil || len(m.Machines()) != 8 {
			t.Fatalf("%s: bad system: %+v", profile, m)
		}
	}
}

func TestSimulateUnknownMapper(t *testing.T) {
	if _, err := taskdrop.NewScenario("video", taskdrop.WithMapper("not-a-mapper")); err == nil {
		t.Fatal("unknown mapper must error")
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
	var withDrop, without float64
	for seed := int64(1); seed <= 4; seed++ {
		withDrop += oneTrial(t, "spec", 2000, 13000, seed, taskdrop.WithDropper("heuristic")).RobustnessPct
		without += oneTrial(t, "spec", 2000, 13000, seed, taskdrop.WithDropper("reactdrop")).RobustnessPct
	}
	if withDrop <= without {
		t.Fatalf("proactive dropping did not help: %.1f%% vs %.1f%%", withDrop/4, without/4)
	}
}

func TestCustomMapperPluggable(t *testing.T) {
	res := oneTrial(t, "video", 300, 2000, 2,
		taskdrop.WithMapperImpl(greedy{}), taskdrop.WithDropper("heuristic"))
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
