package telemetry

import (
	"time"

	"github.com/hpcclab/taskdrop/internal/core"
)

// TimedPolicy wraps a dropping policy to attribute its verdict time to
// the dropper span of the shard's in-flight trace. It is a pure
// pass-through — the verdict, and therefore every decision, is identical
// with or without it — and it reads the recorder's turn-owned active
// field, so it must run under the shard's turn (which the engine
// guarantees: the dropper is only invoked from Feed/Drain).
//
// One admission triggers one Decide per machine per mapping event; Extend
// accumulates them into a single [first start, last end] span nested
// inside the calculus stage.
type TimedPolicy struct {
	Inner core.Policy
	Rec   *ShardRecorder
}

// Name returns the wrapped policy's name (registry specs, manifests and
// audit output must see the real policy).
func (p TimedPolicy) Name() string { return p.Inner.Name() }

// StableDecision forwards the wrapped policy's core.StableDecider answer
// (false when it makes none): the engine asks the policy it was handed, and
// a wrapper that hid the answer would cost the served engine the
// unchanged-queue skip the offline engine takes.
func (p TimedPolicy) StableDecision() bool {
	sd, ok := p.Inner.(core.StableDecider)
	return ok && sd.StableDecision()
}

// Decide delegates to the wrapped policy, timing the call when a trace is
// in flight.
func (p TimedPolicy) Decide(ctx *core.Context) []int {
	a := p.Rec.active
	if a == nil {
		return p.Inner.Decide(ctx)
	}
	start := time.Now()
	out := p.Inner.Decide(ctx)
	a.Extend(StageDropper, start, time.Now())
	return out
}
