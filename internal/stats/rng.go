// Package stats provides the random-number and descriptive-statistics
// substrate for the simulator: seeded streams, Gamma and exponential
// sampling (used to synthesize execution times per §V-A of the paper),
// Poisson arrival processes, and mean/confidence-interval summaries for the
// experiment harness.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seeded random stream. It wraps math/rand.Rand with the samplers
// the workload generators need. RNG is not safe for concurrent use; give
// each trial its own stream (see Split).
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream. The derivation mixes the
// parent's state with a fixed odd multiplier so that consecutive splits do
// not correlate with the parent's own output sequence.
func (g *RNG) Split() *RNG {
	s := uint64(g.r.Int63())
	return NewRNG(int64(s*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D))
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// UniformRange returns a uniform sample in [lo, hi).
func (g *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exponential returns a sample from the exponential distribution with the
// given mean (mean = 1/rate). It panics if mean <= 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: exponential with non-positive mean")
	}
	return g.r.ExpFloat64() * mean
}

// Gamma returns a sample from the Gamma distribution with the given shape
// (k) and scale (θ); mean = k·θ, variance = k·θ². It uses the
// Marsaglia–Tsang squeeze method, with the standard shape<1 boost. It
// panics if shape or scale is non-positive.
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: gamma with non-positive shape or scale")
	}
	if shape < 1 {
		// Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = g.r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}
