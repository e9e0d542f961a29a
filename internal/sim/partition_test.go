package sim

import (
	"testing"

	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
)

// TestPartitionSpecsComposesGlobals checks the two-level deal a
// multi-process deployment performs: PartitionMachines splits the matrix
// across server processes, PartitionSpecs sub-shards one process's part,
// and the composed translations must still be covering, disjoint and
// matrix-wide — and be what a cluster over that part computes, both ways,
// without holding them (Cluster.Global, Cluster.Locate).
func TestPartitionSpecsComposesGlobals(t *testing.T) {
	m, err := pet.CachedMatrix("video")
	if err != nil {
		t.Fatal(err)
	}
	total := len(m.Machines())
	parts, globals := PartitionMachines(m, 2)

	seen := make(map[int]int) // matrix-wide index → count
	added := make(map[int]int)
	for k := range parts {
		shards, subGlobals := PartitionSpecs(parts[k], globals[k], 2)
		cl, err := NewClusterOver(m, k, 2, 2, router.NewRoundRobin(), pamHeuristic(t), Config{QueueCap: 6})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := cl.Locate(1 - k); ok {
			t.Fatalf("part %d locates machine %d, which part %d owns", k, 1-k, 1-k)
		}
		for s := range shards {
			if len(shards[s]) != len(subGlobals[s]) {
				t.Fatalf("part %d shard %d: %d specs vs %d globals", k, s, len(shards[s]), len(subGlobals[s]))
			}
			for local, spec := range shards[s] {
				if spec.Index != local {
					t.Fatalf("part %d shard %d machine %d: local Index %d", k, s, local, spec.Index)
				}
				g := subGlobals[s][local]
				if got := cl.Global(s, local); got != g {
					t.Fatalf("part %d: Global(%d, %d) = %d, the deal says %d", k, s, local, got, g)
				}
				if ls, ll, ok := cl.Locate(g); !ok || ls != s || ll != local {
					t.Fatalf("part %d: Locate(%d) = (%d, %d, %v), want (%d, %d)", k, g, ls, ll, ok, s, local)
				}
				if g < 0 || g >= total {
					t.Fatalf("part %d shard %d: global index %d outside matrix of %d", k, s, g, total)
				}
				// The composed translation must land on the same machine the
				// matrix holds at the global index.
				if m.Machines()[g].Name != spec.Name {
					t.Fatalf("global %d is %q in the matrix but %q in the shard", g, m.Machines()[g].Name, spec.Name)
				}
				seen[g]++
			}
			// Past the deal: the places of machines yet to be added.
			for l := len(shards[s]); l < len(shards[s])+3; l++ {
				g := cl.Global(s, l)
				if ls, ll, ok := cl.Locate(g); g < total || !ok || ls != s || ll != l {
					t.Fatalf("part %d: add %d of shard %d is machine %d, which locates to (%d, %d, %v)", k, l, s, g, ls, ll, ok)
				}
				added[g]++
			}
		}
	}
	for g, n := range added {
		if n != 1 {
			t.Fatalf("added machine %d is named by %d (part, shard, local) places", g, n)
		}
	}
	if len(seen) != total {
		t.Fatalf("two-level partition covers %d of %d machines", len(seen), total)
	}
	for g, n := range seen {
		if n != 1 {
			t.Fatalf("machine %d appears %d times across the partition", g, n)
		}
	}
}

// TestNewClusterOverEqualsFullClusterUnion replays one trace through (a)
// one 2-shard cluster over the whole matrix and (b) two 1-shard clusters
// over the two PartitionMachines parts with the matching class-partition
// router, and requires the merged accounting to be self-consistent: the
// same total tasks, and every machine owned exactly once (NumMachines
// sums to the matrix).
func TestNewClusterOverEqualsFullClusterUnion(t *testing.T) {
	m, tr := clusterTestSystem(t, 600, 3)
	parts, _ := PartitionMachines(m, 2)

	clusters := make([]*Cluster, 2)
	for k := range clusters {
		cl, err := NewClusterOver(m, k, 2, 1, router.NewRoundRobin(), pamHeuristic(t), Config{QueueCap: 6})
		if err != nil {
			t.Fatal(err)
		}
		clusters[k] = cl
		if cl.NumMachines() != len(parts[k]) {
			t.Fatalf("cluster %d owns %d machines, want %d", k, cl.NumMachines(), len(parts[k]))
		}
	}
	if clusters[0].NumMachines()+clusters[1].NumMachines() != len(m.Machines()) {
		t.Fatalf("partition clusters own %d+%d machines, matrix has %d",
			clusters[0].NumMachines(), clusters[1].NumMachines(), len(m.Machines()))
	}

	// Deal tasks by class hash — the router tier's assignment — and run
	// both partitions to completion.
	hash := router.NewClassHash(0)
	views := []*router.ShardView{router.NewShardView(m.NumTaskTypes()), router.NewShardView(m.NumTaskTypes())}
	fed := make([]int, 2)
	for i := range tr.Tasks {
		task := &tr.Tasks[i]
		k := hash.Route(router.Task{Class: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline}, views)
		clusters[k].Feed(task)
		fed[k]++
	}
	results := make([]*Result, 2)
	for k, cl := range clusters {
		results[k] = cl.Drain()
		if results[k].Total != fed[k] {
			t.Fatalf("cluster %d accounted %d tasks, fed %d", k, results[k].Total, fed[k])
		}
	}
	merged := MergeResults(results, len(m.Machines()))
	if merged.Total != len(tr.Tasks) {
		t.Fatalf("merged Total = %d, want %d", merged.Total, len(tr.Tasks))
	}
	if merged.MOnTime+merged.MLate+merged.MDroppedReactive+merged.MDroppedProactive+merged.MFailed != merged.Measured {
		t.Fatalf("merged accounting does not partition Measured: %+v", merged)
	}
}
