package service

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hpcclab/taskdrop/internal/sim"
)

// Churn plans: hcload's fault-injection harness. A plan is a schedule of
// admin membership operations fired at task-index points of a replay —
// "kill machine 3 after 500 tasks, revive it after 1500" — driving the
// server through the same churn a production cluster sees, but
// reproducibly.

// ChurnAction is one scheduled membership operation of a churn plan.
type ChurnAction struct {
	// AtTask is the 0-based task index (within the replayed window) the
	// operation fires at: Replay applies it immediately before the decide
	// batch containing that index.
	AtTask int                 `json:"at_task"`
	Req    AdminMachineRequest `json:"req"`
}

// churnGrammar spells the action of each operation, by sim.MemberKind:
// remove hands the queue off unless :drop force-drops it, revive returns a
// removed machine, add grows <shard> with a machine of <type>.
var churnGrammar = [...]string{
	sim.MemberAdd:    "<at>:add:<shard>:<type>",
	sim.MemberRemove: "<at>:remove:<machine>[:drop]",
	sim.MemberRevive: "<at>:revive:<machine>",
}

// ParseChurnPlan parses hcload's -churn grammar: comma-separated actions
// (churnGrammar), where <at> is the 0-based task index the action fires
// before and <machine> is a matrix-wide machine index — for a machine an
// earlier add of the plan creates, the index sim.Cluster.Global gives it.
// Actions may be given in any order; Replay fires them sorted by task
// index.
func ParseChurnPlan(s string) ([]ChurnAction, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var plan []ChurnAction
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("service: churn action %q, want \"<at>:<op>:...\"", part)
		}
		at, err := strconv.Atoi(fields[0])
		if err != nil || at < 0 {
			return nil, fmt.Errorf("service: churn action %q: bad task index %q", part, fields[0])
		}
		kind, ok := sim.ParseMemberKind(fields[1])
		if !ok {
			return nil, fmt.Errorf("service: churn action %q: op %q, want remove, revive or add", part, fields[1])
		}
		a := ChurnAction{AtTask: at, Req: AdminMachineRequest{Op: fields[1], Handoff: kind == sim.MemberRemove}}
		args := fields[2:]
		if kind == sim.MemberRemove && len(args) == 2 && args[1] == "drop" {
			a.Req.Handoff, args = false, args[:1]
		}
		// An add names a shard and a type, the other two one machine.
		dst, names := []*int{&a.Req.Machine}, []string{"machine"}
		if kind == sim.MemberAdd {
			dst, names = []*int{&a.Req.Shard, &a.Req.Type}, []string{"shard", "type"}
		}
		if len(args) != len(dst) {
			return nil, fmt.Errorf("service: churn action %q, want %q", part, churnGrammar[kind])
		}
		for i, f := range args {
			if *dst[i], err = strconv.Atoi(f); err != nil {
				return nil, fmt.Errorf("service: churn action %q: bad %s %q", part, names[i], f)
			}
		}
		plan = append(plan, a)
	}
	return plan, nil
}
