package sim

import (
	"runtime"
	"testing"

	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/workload"
)

// maxFeedBytes bounds what one Feed allocates, on average, once an open
// engine is warm. The engine reuses a settled task's state for the next
// arrival (newTask) and the calculus its arena, trie and scratch, so what
// is left is the occasional high-water growth of a chain cache's pinned
// block or trie: a served shard's heap stays its live set, and a long run
// never reaches the collector's floor on task storage.
const maxFeedBytes = 16

func TestFeedAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	const warm, measured = 10_000, 50_000
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's arrival intensity, 30 000 tasks per standard window.
	tr := workload.Generate(m, workload.Config{TotalTasks: warm + measured, Window: 2 * workload.StandardWindow,
		GammaSlack: workload.DefaultGammaSlack}, 11)
	e := NewOpen(m, pamLike{}, core.Heuristic{Beta: core.DefaultBeta, Eta: core.DefaultEta}, DefaultConfig())
	for i := range tr.Tasks[:warm] {
		e.Feed(&tr.Tasks[i])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < len(tr.Tasks); i++ {
		e.Feed(&tr.Tasks[i])
	}
	runtime.ReadMemStats(&after)
	perFeed := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%d warm feeds allocate %.2f B per Feed (%d mallocs)", measured, perFeed, after.Mallocs-before.Mallocs)
	if perFeed > maxFeedBytes {
		t.Fatalf("a warm Feed allocates %.2f B on average, budget %d", perFeed, maxFeedBytes)
	}
}
