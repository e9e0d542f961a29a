package taskdrop

import (
	"github.com/hpcclab/taskdrop/internal/core"
	"github.com/hpcclab/taskdrop/internal/mapping"
	"github.com/hpcclab/taskdrop/internal/pet"
	"github.com/hpcclab/taskdrop/internal/router"
)

// Unified registries. Every named component of the system — mapping
// heuristics, dropping policies and system profiles — resolves through one
// spec grammar shared by the CLI binaries, the experiment harness and the
// Scenario API:
//
//	name
//	name:key=value,flag,key2=value2
//
// Names and keys are case-insensitive; a bare key is a boolean flag.
// Unknown names, unknown parameters and out-of-range values are errors.

// NewMapper resolves a mapper spec. Recognized components: MinMin (alias
// MM), MSD, PAM, FCFS, SJF, EDF, MET and KPB; parameterized form:
//
//	kpb:percent=<int in (0,100]>
//
// Every built-in mapper is a stateless value, safe to share across
// concurrent trials and shards.
func NewMapper(spec string) (Mapper, error) { return mapping.FromSpec(spec) }

// NewDropper resolves a dropping-policy spec. Recognized components:
//
//	reactdrop (aliases: reactive, none)
//	heuristic:beta=<float ≥1>,eta=<int ≥1>
//	optimal
//	threshold:base=<float in [0,1]>,adaptive[=bool]
//	approx:beta=<float ≥1>,eta=<int ≥1>
//
// Omitted parameters take the paper's tuned defaults (β=1, η=2, θ=0.25,
// adaptive threshold). Every dropper forecasts under the engine's
// reactive grace window (WithGrace), and approx values late completions by
// it: there is no second grace to keep in sync.
func NewDropper(spec string) (DropPolicy, error) { return core.PolicyFromSpec(spec) }

// NewProfile resolves a system-profile spec: "spec" (aliases specint, hc;
// parameterized as spec:seed=<int64>), "video" (alias transcoding), or
// "homog" (aliases homogeneous, homo).
func NewProfile(spec string) (Profile, error) { return pet.ProfileFromSpec(spec) }

// NewRouter resolves a shard-routing-policy spec (see WithShards /
// WithRouter). Recognized components:
//
//	rr (aliases: roundrobin, round-robin)
//	p2c:seed=<int64> (aliases: poweroftwo, power-of-two)
//	hash:seed=<int64> (aliases: class, class-hash)
//
// "rr" cycles shards; "p2c" samples two shards and admits through the one
// whose robustness estimate for the task's class — the expected on-time
// probability it recently delivered — is higher; "hash" sends every task
// of one class to the same shard. Policies keep no state of their own: a
// route is a function of the task's sequence number, its class and the
// shards' published views.
func NewRouter(spec string) (RouterPolicy, error) { return router.FromSpec(spec) }

// MapperNames lists the built-in mapping heuristics.
func MapperNames() []string { return mapping.Names() }

// DropperNames lists the built-in dropping policies.
func DropperNames() []string { return core.PolicyNames() }

// ProfileNames lists the built-in system profiles.
func ProfileNames() []string { return pet.ProfileNames() }

// RouterNames lists the built-in shard-routing policies.
func RouterNames() []string { return router.Names() }
