package pmf

import (
	"math/rand"
	"testing"
)

// TestWorkspaceHighWater exercises the arena accounting: the high-water
// mark rises with committed impulses, survives Reset (it is a lifetime
// peak, not a live gauge), and matches used*16 bytes exactly for a known
// commit.
func TestWorkspaceHighWater(t *testing.T) {
	var ws Workspace
	if ws.HighWaterBytes() != 0 {
		t.Fatalf("fresh workspace high-water = %d", ws.HighWaterBytes())
	}

	exec := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 2, P: 0.5}})
	prev := FromImpulses([]Impulse{{T: 10, P: 1}})
	out := ws.NextCompletion(prev, exec, 100)
	if out.Len() != 2 {
		t.Fatalf("convolution width = %d, want 2", out.Len())
	}
	hw := ws.HighWaterBytes()
	if want := int64(out.Len()) * 16; hw != want {
		t.Fatalf("high-water = %d bytes, want %d (= %d impulses)", hw, want, out.Len())
	}

	// A larger epoch raises the peak; Reset does not lower it.
	r := rand.New(rand.NewSource(7))
	acc := randomPMF(r, 25, 2000)
	for i := 0; i < 8; i++ {
		acc = ws.NextCompletionCompact(acc, normalize(randomPMF(r, 20, 400)), 1<<30, DefaultMaxImpulses)
	}
	grown := ws.HighWaterBytes()
	if grown <= hw {
		t.Fatalf("high-water did not grow: %d -> %d", hw, grown)
	}
	ws.Reset()
	if ws.HighWaterBytes() != grown {
		t.Fatalf("Reset lowered the high-water mark: %d -> %d", grown, ws.HighWaterBytes())
	}
	// A smaller post-reset epoch keeps the old peak.
	ws.NextCompletion(prev, exec, 100)
	if ws.HighWaterBytes() != grown {
		t.Fatalf("small epoch moved the peak: %d -> %d", grown, ws.HighWaterBytes())
	}
}
