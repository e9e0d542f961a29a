package sim

import (
	"sort"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

// ChurnConfig enables machine churn injection — runtime membership change,
// as opposed to FailureConfig's transient outages: a churned machine is
// removed from the live set entirely (its pending queue handed back to the
// batch) and later revived empty. Churn plans are pre-generated from the
// seed (GenerateChurn), so trials with equal seeds see equal membership
// schedules.
type ChurnConfig struct {
	// MeanInterval is the mean time between kill events across the whole
	// cluster, in ticks; 0 disables churn.
	MeanInterval pmf.Tick
	// MeanDown is the mean outage duration before the killed machine is
	// revived, in ticks.
	MeanDown pmf.Tick
	// Seed drives the churn plan.
	Seed int64
}

// Enabled reports whether churn injection is active.
func (c ChurnConfig) Enabled() bool { return c.MeanInterval > 0 }

// ChurnEvent is one timed membership change in a churn plan: the operation
// (Machine is matrix-wide, see Cluster.Global), when it happens, and the
// shard an added machine joins.
type ChurnEvent struct {
	At pmf.Tick
	MemberOp
	Shard int
}

// GenerateChurn builds a deterministic churn plan over the arrival window:
// kill events arrive as a Poisson process with the configured mean
// interval, each killed machine is revived after an exponential downtime,
// and the plan never takes down the last live machine. Events are returned
// in time order; revives scheduled past the window are omitted (the
// machine stays out for the drain). A disabled config or a single-machine
// system yields an empty plan.
func GenerateChurn(machines int, window pmf.Tick, cfg ChurnConfig) []ChurnEvent {
	if !cfg.Enabled() || machines < 2 {
		return nil
	}
	rng := stats.NewRNG(cfg.Seed)
	reviveAt := make([]pmf.Tick, machines)
	for i := range reviveAt {
		reviveAt[i] = noCompletion
	}
	down := 0
	var evs []ChurnEvent
	t := pmf.Tick(0)
	for {
		t += 1 + pmf.Tick(rng.Exponential(float64(cfg.MeanInterval)))
		if t >= window {
			break
		}
		// Apply revives due by t first so the pick below sees the current
		// membership.
		for i := 0; i < machines; i++ {
			if reviveAt[i] != noCompletion && reviveAt[i] <= t {
				evs = append(evs, ChurnEvent{At: reviveAt[i], MemberOp: MemberOp{Kind: MemberRevive, Machine: i}})
				reviveAt[i] = noCompletion
				down--
			}
		}
		if down >= machines-1 {
			continue // never kill the last live machine
		}
		pick := rng.Intn(machines)
		for reviveAt[pick] != noCompletion {
			pick = rng.Intn(machines)
		}
		evs = append(evs, ChurnEvent{At: t, MemberOp: MemberOp{Kind: MemberRemove, Machine: pick, Handoff: true}})
		reviveAt[pick] = t + 1 + pmf.Tick(rng.Exponential(float64(cfg.MeanDown)))
		down++
	}
	for i := 0; i < machines; i++ {
		if reviveAt[i] != noCompletion && reviveAt[i] < window {
			evs = append(evs, ChurnEvent{At: reviveAt[i], MemberOp: MemberOp{Kind: MemberRevive, Machine: i}})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	return evs
}
