package pmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// randomPMF builds a random sub-probability PMF for property tests:
// up to maxImp impulses in [0, spread), total mass in (0, 1].
func randomPMF(r *rand.Rand, maxImp int, spread int64) PMF {
	n := 1 + r.Intn(maxImp)
	imps := make([]Impulse, n)
	total := 0.0
	for i := range imps {
		imps[i] = Impulse{T: Tick(r.Int63n(spread)), P: r.Float64() + 1e-6}
		total += imps[i].P
	}
	// Normalize to a random total mass in (0.2, 1].
	target := 0.2 + 0.8*r.Float64()
	for i := range imps {
		imps[i].P *= target / total
	}
	return FromImpulses(imps)
}

func TestFromImpulsesSortsAndMerges(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 5, P: 0.25}, {T: 2, P: 0.5}, {T: 5, P: 0.25}})
	want := []Impulse{{T: 2, P: 0.5}, {T: 5, P: 0.5}}
	got := p.Impulses()
	if len(got) != len(want) {
		t.Fatalf("impulses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].T != want[i].T || !almost(got[i].P, want[i].P, 1e-12) {
			t.Fatalf("impulse %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFromImpulsesDropsNonPositive(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 1, P: 0}, {T: 2, P: -0.5}, {T: 3, P: 0.5}})
	if p.Len() != 1 || p.Impulses()[0].T != 3 {
		t.Fatalf("got %v, want single impulse at 3", p)
	}
}

func TestDelta(t *testing.T) {
	d := Delta(7)
	if d.Len() != 1 || d.At(7) != 1 || d.TotalMass() != 1 {
		t.Fatalf("Delta(7) = %v", d)
	}
	if d.Mean() != 7 || d.Variance() != 0 {
		t.Fatalf("Delta(7) mean=%v var=%v", d.Mean(), d.Variance())
	}
}

func TestZeroPMF(t *testing.T) {
	z := Zero()
	if !z.IsZero() || z.TotalMass() != 0 || z.Len() != 0 {
		t.Fatalf("Zero() = %v", z)
	}
	if z.Mean() != 0 || z.Variance() != 0 {
		t.Fatalf("empty PMF moments should be 0")
	}
	if got := z.Convolve(Delta(3)); !got.IsZero() {
		t.Fatalf("Zero ⊛ Delta = %v, want zero", got)
	}
}

func TestAtAndMassQueries(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 10, P: 0.2}, {T: 20, P: 0.3}, {T: 30, P: 0.5}})
	if got := p.At(20); got != 0.3 {
		t.Fatalf("At(20) = %v", got)
	}
	if got := p.At(15); got != 0 {
		t.Fatalf("At(15) = %v, want 0", got)
	}
	if got := p.MassBefore(20); !almost(got, 0.2, 1e-12) {
		t.Fatalf("MassBefore(20) = %v, want 0.2 (strictly before)", got)
	}
	if got := p.MassBefore(21); !almost(got, 0.5, 1e-12) {
		t.Fatalf("MassBefore(21) = %v, want 0.5", got)
	}
	if p.Min() != 10 || p.Max() != 30 {
		t.Fatalf("Min/Max = %d/%d", p.Min(), p.Max())
	}
}

// TestMassQueryBoundaryTicks pins the binary-searched MassBefore at every
// boundary: below, at, between, and above the impulse support, plus the
// empty PMF.
func TestMassQueryBoundaryTicks(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 10, P: 0.2}, {T: 20, P: 0.3}, {T: 30, P: 0.5}})
	cases := []struct {
		t      Tick
		before float64
	}{
		{-5, 0}, // far below the support
		{9, 0},  // one tick below the first impulse
		{10, 0}, // exactly at the first impulse (strictly-before excludes it)
		{11, 0.2},
		{19, 0.2},
		{20, 0.2}, // exactly at a middle impulse
		{21, 0.5},
		{30, 0.5}, // exactly at the last impulse
		{31, 1},   // one past the last impulse
		{1000, 1}, // far above the support
	}
	for _, c := range cases {
		if got := p.MassBefore(c.t); !almost(got, c.before, 1e-12) {
			t.Errorf("MassBefore(%d) = %v, want %v", c.t, got, c.before)
		}
	}
	var zero PMF
	if zero.MassBefore(10) != 0 {
		t.Errorf("empty PMF MassBefore = %v, want 0", zero.MassBefore(10))
	}
}

// TestMassQueriesMatchLinearScan cross-checks the binary-searched query
// against the straightforward linear scan on random PMFs, at random cuts
// and at every exact impulse tick and its neighbours.
func TestMassQueriesMatchLinearScan(t *testing.T) {
	linBefore := func(p PMF, cut Tick) float64 {
		s := 0.0
		for _, im := range p.Impulses() {
			if im.T >= cut {
				break
			}
			s += im.P
		}
		return s
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := randomPMF(r, 25, 1000)
		cuts := []Tick{Tick(r.Int63n(1200)) - 100}
		for _, im := range p.Impulses() {
			cuts = append(cuts, im.T-1, im.T, im.T+1)
		}
		for _, cut := range cuts {
			if got, want := p.MassBefore(cut), linBefore(p, cut); got != want {
				t.Fatalf("MassBefore(%d) = %v, linear scan %v (pmf %v)", cut, got, want, p)
			}
		}
	}
}

func TestMassPartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := randomPMF(r, 20, 1000)
		cut := Tick(r.Int63n(1200))
		rest := 0.0
		for _, im := range p.Impulses() {
			if im.T >= cut {
				rest += im.P
			}
		}
		if sum := p.MassBefore(cut) + rest; !almost(sum, p.TotalMass(), 1e-12) {
			t.Fatalf("partition at %d: %v + %v != %v", cut, p.MassBefore(cut), rest, p.TotalMass())
		}
	}
}

func TestMeanAndVariance(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 3, P: 0.5}})
	if !almost(p.Mean(), 2, 1e-12) {
		t.Fatalf("Mean = %v, want 2", p.Mean())
	}
	if !almost(p.Variance(), 1, 1e-12) {
		t.Fatalf("Variance = %v, want 1", p.Variance())
	}
	if !almost(p.StdDev(), 1, 1e-12) {
		t.Fatalf("StdDev = %v, want 1", p.StdDev())
	}
}

func TestMeanIsMassNormalized(t *testing.T) {
	// Sub-probability PMFs report the conditional mean.
	p := FromImpulses([]Impulse{{T: 10, P: 0.1}, {T: 20, P: 0.1}})
	if !almost(p.Mean(), 15, 1e-12) {
		t.Fatalf("Mean = %v, want 15", p.Mean())
	}
}

func TestQuantile(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 1, P: 0.25}, {T: 2, P: 0.25}, {T: 3, P: 0.5}})
	cases := []struct {
		q    float64
		want Tick
	}{{0.1, 1}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {1.0, 3}}
	for _, c := range cases {
		if got := p.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		p := randomPMF(r, 15, 500)
		q1, q2 := r.Float64(), r.Float64()
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		if q1 == 0 {
			q1 = 0.01
		}
		if p.Quantile(q1) > p.Quantile(q2) {
			t.Fatalf("quantile not monotone: Q(%v)=%d > Q(%v)=%d",
				q1, p.Quantile(q1), q2, p.Quantile(q2))
		}
	}
}

func TestShift(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 5, P: 0.4}, {T: 8, P: 0.6}})
	s := p.Shift(10)
	if s.Min() != 15 || s.Max() != 18 {
		t.Fatalf("Shift bounds = [%d,%d]", s.Min(), s.Max())
	}
	if !almost(s.Mean(), p.Mean()+10, 1e-12) {
		t.Fatalf("Shift mean = %v", s.Mean())
	}
	if !p.Shift(0).Equal(p) {
		t.Fatalf("Shift(0) should be identity")
	}
}

func TestScale(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 2, P: 0.5}})
	s := p.Scale(0.5)
	if !almost(s.TotalMass(), 0.5, 1e-12) {
		t.Fatalf("Scale mass = %v", s.TotalMass())
	}
	if got := p.Scale(0); !got.IsZero() {
		t.Fatalf("Scale(0) = %v, want zero", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(-1) should panic")
		}
	}()
	p.Scale(-1)
}

func TestAdd(t *testing.T) {
	a := FromImpulses([]Impulse{{T: 1, P: 0.2}, {T: 3, P: 0.3}})
	b := FromImpulses([]Impulse{{T: 2, P: 0.1}, {T: 3, P: 0.2}})
	sum := a.Add(b)
	if !almost(sum.TotalMass(), 0.8, 1e-12) {
		t.Fatalf("Add mass = %v", sum.TotalMass())
	}
	if !almost(sum.At(3), 0.5, 1e-12) {
		t.Fatalf("Add At(3) = %v", sum.At(3))
	}
	if !a.Add(Zero()).Equal(a) || !Zero().Add(b).Equal(b) {
		t.Fatal("Add with zero should be identity")
	}
}

func TestNormalize(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 1, P: 0.2}, {T: 2, P: 0.2}})
	n := p.Normalize()
	if !almost(n.TotalMass(), 1, 1e-12) {
		t.Fatalf("Normalize mass = %v", n.TotalMass())
	}
	if !almost(n.At(1), 0.5, 1e-12) {
		t.Fatalf("Normalize At(1) = %v", n.At(1))
	}
	if !Zero().Normalize().IsZero() {
		t.Fatal("Normalize of zero should stay zero")
	}
}

func TestEqualAndApproxEqual(t *testing.T) {
	a := FromImpulses([]Impulse{{T: 1, P: 0.5}, {T: 2, P: 0.5}})
	b := FromImpulses([]Impulse{{T: 1, P: 0.5 + 1e-10}, {T: 2, P: 0.5 - 1e-10}})
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.ApproxEqual(b, 1e-9) {
		t.Fatal("ApproxEqual within tolerance")
	}
	if a.ApproxEqual(b.Shift(1), 1) {
		t.Fatal("ApproxEqual must require equal times")
	}
}

func TestString(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 10, P: 0.6}, {T: 11, P: 0.4}})
	if got, want := p.String(), "{10:0.600 11:0.400}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(10, 19, 10)
	if u.Len() != 10 {
		t.Fatalf("Uniform len = %d", u.Len())
	}
	if !almost(u.TotalMass(), 1, 1e-9) {
		t.Fatalf("Uniform mass = %v", u.TotalMass())
	}
	if u.Min() != 10 || u.Max() != 19 {
		t.Fatalf("Uniform bounds [%d,%d]", u.Min(), u.Max())
	}
	if one := Uniform(5, 5, 3); one.Len() != 1 || one.Min() != 5 {
		t.Fatalf("degenerate Uniform = %v", one)
	}
}

func TestFromSamplesBasics(t *testing.T) {
	samples := []Tick{10, 10, 20, 20, 30, 30}
	p := FromSamples(samples, 3)
	if !almost(p.TotalMass(), 1, 1e-9) {
		t.Fatalf("mass = %v", p.TotalMass())
	}
	if p.Len() > 3 {
		t.Fatalf("len = %d > bins", p.Len())
	}
	if !almost(p.Mean(), 20, 0.51) {
		t.Fatalf("mean = %v, want ≈20", p.Mean())
	}
}

func TestFromSamplesClampsToOneTick(t *testing.T) {
	p := FromSamples([]Tick{0, -5, 3}, 4)
	if p.Min() < 1 {
		t.Fatalf("Min = %d, want >= 1", p.Min())
	}
}

func TestFromSamplesMeanProperty(t *testing.T) {
	err := quick.Check(func(raw []uint16, binsRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		bins := int(binsRaw%40) + 1
		samples := make([]Tick, len(raw))
		var sum float64
		for i, v := range raw {
			s := Tick(v%5000) + 1
			samples[i] = s
			sum += float64(s)
		}
		p := FromSamples(samples, bins)
		wantMean := sum / float64(len(samples))
		// Each merge rounds to the grid: mean error ≤ 1 tick.
		return almost(p.TotalMass(), 1, 1e-9) && almost(p.Mean(), wantMean, 1.0) && p.Len() <= bins
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompactPreservesMassAndMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		p := randomPMF(r, 60, 3000)
		budget := 4 + r.Intn(20)
		c := p.Compact(budget)
		if c.Len() > budget {
			t.Fatalf("Compact len = %d > %d", c.Len(), budget)
		}
		if !almost(c.TotalMass(), p.TotalMass(), 1e-9) {
			t.Fatalf("Compact mass %v != %v", c.TotalMass(), p.TotalMass())
		}
		// Merged impulses sit at mass-weighted means rounded to the grid;
		// each bin shifts the global mean by at most half a bin width + 1.
		span := float64(p.Max() - p.Min() + 1)
		tol := span/float64(budget) + 1
		if !almost(c.Mean(), p.Mean(), tol) {
			t.Fatalf("Compact mean %v vs %v (tol %v)", c.Mean(), p.Mean(), tol)
		}
		if c.Min() < p.Min() || c.Max() > p.Max() {
			t.Fatalf("Compact support [%d,%d] escapes [%d,%d]", c.Min(), c.Max(), p.Min(), p.Max())
		}
	}
}

func TestCompactNoOpWithinBudget(t *testing.T) {
	p := FromImpulses([]Impulse{{T: 1, P: 0.3}, {T: 2, P: 0.7}})
	if got := p.Compact(5); !got.Equal(p) {
		t.Fatalf("Compact within budget changed PMF: %v", got)
	}
}
