package pmf

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvolveSimple(t *testing.T) {
	a := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 2, P: 0.5}})
	b := FromImpulses([]Impulse{{T: 10, P: 0.5}, {T: 20, P: 0.5}})
	c := convolve(a, b)
	want := FromImpulses([]Impulse{
		{T: 11, P: 0.25}, {T: 12, P: 0.25}, {T: 21, P: 0.25}, {T: 22, P: 0.25},
	})
	if !c.ApproxEqual(want, 1e-12) {
		t.Fatalf("Convolve = %v, want %v", c, want)
	}
}

func TestConvolveDeltaFastPath(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 3, P: 0.4}, {T: 5, P: 0.6}})
	if got := convolve(Delta(10), p); !got.Equal(p.Shift(10)) {
		t.Fatalf("Delta⊛p = %v", got)
	}
	if got := convolve(p, Delta(10)); !got.Equal(p.Shift(10)) {
		t.Fatalf("p⊛Delta = %v", got)
	}
}

func TestConvolveProperties(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a := randomPMF(r, 15, 400)
		b := randomPMF(r, 15, 400)
		c := convolve(a, b)
		// Mass multiplies.
		if !almost(c.TotalMass(), a.TotalMass()*b.TotalMass(), 1e-9) {
			t.Fatalf("mass: %v != %v*%v", c.TotalMass(), a.TotalMass(), b.TotalMass())
		}
		// Means add (for normalized means of sub-probability PMFs this
		// still holds because every cross term scales uniformly).
		if !almost(c.Mean(), a.Mean()+b.Mean(), 1e-6) {
			t.Fatalf("mean: %v != %v+%v", c.Mean(), a.Mean(), b.Mean())
		}
		// Variances add.
		if !almost(c.Variance(), a.Variance()+b.Variance(), 1e-4) {
			t.Fatalf("variance: %v != %v+%v", c.Variance(), a.Variance(), b.Variance())
		}
		// Commutativity.
		if !c.ApproxEqual(convolve(b, a), 1e-12) {
			t.Fatal("convolution not commutative")
		}
		// Support bounds.
		if c.Min() != a.Min()+b.Min() || c.Max() != a.Max()+b.Max() {
			t.Fatalf("support [%d,%d], want [%d,%d]", c.Min(), c.Max(), a.Min()+b.Min(), a.Max()+b.Max())
		}
	}
}

// TestNextCompletionPaperExample reproduces the worked example of Fig. 2 in
// the paper: exec(i) = {1:0.6, 2:0.4}, completion(i−1) = {10:0.6, 11:0.3,
// 12:0.05, 13:0.05}, δ_i = 13 → completion(i) = {11:0.36, 12:0.42, 13:0.20,
// 14:0.02}, chance of success 0.78.
func TestNextCompletionPaperExample(t *testing.T) {
	exec := FromImpulses([]Impulse{{T: 1, P: 0.6}, {T: 2, P: 0.4}})
	prev := FromImpulses([]Impulse{{T: 10, P: 0.6}, {T: 11, P: 0.3}, {T: 12, P: 0.05}, {T: 13, P: 0.05}})
	const dl = Tick(13)

	got := prev.NextCompletion(exec, dl)
	want := FromImpulses([]Impulse{{T: 11, P: 0.36}, {T: 12, P: 0.42}, {T: 13, P: 0.20}, {T: 14, P: 0.02}})
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("NextCompletion = %v, want %v", got, want)
	}
	if cos := got.MassBefore(dl); !almost(cos, 0.78, 1e-12) {
		t.Fatalf("chance of success = %v, want 0.78", cos)
	}
}

func TestNextCompletionAllCarry(t *testing.T) {
	// Deadline before every predecessor completion: the task is always
	// dropped and the PMF passes through unchanged.
	prev := FromImpulses([]Impulse{{T: 10, P: 0.7}, {T: 12, P: 0.3}})
	exec := FromImpulses([]Impulse{{T: 5, P: 1}})
	got := prev.NextCompletion(exec, 10)
	if !got.ApproxEqual(prev, 1e-12) {
		t.Fatalf("all-carry NextCompletion = %v, want %v", got, prev)
	}
}

func TestNextCompletionNoCarry(t *testing.T) {
	// Deadline after everything: plain convolution.
	prev := FromImpulses([]Impulse{{T: 10, P: 0.5}, {T: 12, P: 0.5}})
	exec := FromImpulses([]Impulse{{T: 2, P: 0.5}, {T: 4, P: 0.5}})
	got := prev.NextCompletion(exec, 1000)
	want := convolve(prev, exec)
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("no-carry = %v, want convolution %v", got, want)
	}
}

func TestNextCompletionMassConservation(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		prev := randomPMF(r, 20, 600)
		exec := normalize(randomPMF(r, 10, 100))
		dl := Tick(r.Int63n(800))
		got := prev.NextCompletion(exec, dl)
		if !almost(got.TotalMass(), prev.TotalMass(), 1e-9) {
			t.Fatalf("mass not conserved: %v -> %v (dl=%d)", prev.TotalMass(), got.TotalMass(), dl)
		}
	}
}

func TestNextCompletionSplitIdentity(t *testing.T) {
	// NextCompletion = conv(prev<dl, exec) + prev≥dl, verified piecewise.
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		prev := randomPMF(r, 20, 500)
		exec := normalize(randomPMF(r, 10, 80))
		dl := Tick(r.Int63n(600))
		var below, atOrAbove []Impulse
		for _, im := range prev.Impulses() {
			if im.T < dl {
				below = append(below, im)
			} else {
				atOrAbove = append(atOrAbove, im)
			}
		}
		want := convolve(FromImpulses(below), exec).Add(FromImpulses(atOrAbove))
		got := prev.NextCompletion(exec, dl)
		if !got.ApproxEqual(want, 1e-9) {
			t.Fatalf("split identity failed (dl=%d):\n got %v\nwant %v", dl, got, want)
		}
	}
}

func TestConditionalRemaining(t *testing.T) {
	e := FromImpulses([]Impulse{{T: 10, P: 0.25}, {T: 20, P: 0.5}, {T: 30, P: 0.25}})

	// No elapsed time: unchanged.
	if got := conditionalRemaining(e, 0); !got.Equal(e) {
		t.Fatalf("elapsed=0 changed PMF: %v", got)
	}
	// elapsed=10 removes the first impulse and renormalizes.
	got := conditionalRemaining(e, 10)
	want := FromImpulses([]Impulse{{T: 10, P: 0.5 / 0.75}, {T: 20, P: 0.25 / 0.75}})
	if !got.ApproxEqual(want, 1e-12) {
		t.Fatalf("ConditionalRemaining(10) = %v, want %v", got, want)
	}
	// elapsed beyond the support: optimistic Delta(1).
	if got := conditionalRemaining(e, 100); !got.Equal(Delta(1)) {
		t.Fatalf("ConditionalRemaining beyond support = %v, want Delta(1)", got)
	}
}

// TestConditionalRemainingProperties checks the portable form's mass and
// support, and holds the calculus' fused kernel to it bit for bit.
func TestConditionalRemainingProperties(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var ws Workspace
	for i := 0; i < 200; i++ {
		e := normalize(randomPMF(r, 15, 300))
		elapsed := Tick(r.Int63n(350))
		got := conditionalRemaining(e, elapsed)
		if !almost(got.TotalMass(), 1, 1e-9) {
			t.Fatalf("conditional mass = %v", got.TotalMass())
		}
		if got.Min() < 1 {
			t.Fatalf("remaining time %d < 1", got.Min())
		}
		now := Tick(r.Int63n(1000))
		if fused := ws.ConditionalRemainingShift(e, elapsed, now); !fused.Equal(got.Shift(now)) {
			t.Fatalf("elapsed %d now %d: fused kernel %v, portable %v", elapsed, now, fused, got.Shift(now))
		}
		ws.Reset()
	}
}

func TestConvolveAssociativityApprox(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 50; i++ {
		a := randomPMF(r, 8, 100)
		b := randomPMF(r, 8, 100)
		c := randomPMF(r, 8, 100)
		left := convolve(convolve(a, b), c)
		right := convolve(a, convolve(b, c))
		if !left.ApproxEqual(right, 1e-9) {
			t.Fatal("convolution not associative")
		}
	}
}

func TestConvolveHugeMassStaysFinite(t *testing.T) {
	// Repeated self-convolution must not produce NaN/Inf.
	p := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 2, P: 0.5}})
	acc := p
	for i := 0; i < 10; i++ {
		acc = convolve(acc, p).Compact(DefaultMaxImpulses)
	}
	if math.IsNaN(acc.Mean()) || math.IsInf(acc.Mean(), 0) {
		t.Fatalf("mean degenerated: %v", acc.Mean())
	}
	if !almost(acc.TotalMass(), 1, 1e-9) {
		t.Fatalf("mass = %v", acc.TotalMass())
	}
}
