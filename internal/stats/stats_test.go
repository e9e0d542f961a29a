package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	g := NewRNG(5)
	c1 := g.Split()
	c2 := g.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide on %d/100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.UniformRange(1, 20)
		if v < 1 || v >= 20 {
			t.Fatalf("UniformRange out of bounds: %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(8)
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(50)
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Fatalf("exponential mean = %v, want ≈50", mean)
	}
}

func TestExponentialPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestGammaMoments(t *testing.T) {
	g := NewRNG(9)
	cases := []struct{ shape, scale float64 }{
		{0.5, 10}, {1, 5}, {2, 3}, {7.5, 2}, {50, 0.5},
	}
	const n = 100_000
	for _, c := range cases {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := g.Gamma(c.shape, c.scale)
			if v <= 0 {
				t.Fatalf("gamma(%v,%v) produced non-positive sample %v", c.shape, c.scale, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.03*wantMean+0.05 {
			t.Errorf("gamma(%v,%v) mean = %v, want ≈%v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.10*wantVar+0.1 {
			t.Errorf("gamma(%v,%v) var = %v, want ≈%v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewRNG(1).Gamma(0, 1) },
		func() { NewRNG(1).Gamma(1, 0) },
		func() { NewRNG(1).Gamma(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	// Sample stddev with n−1: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev, want)
	}
	wantCI := tCritical95(7) * want / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", s.CI95, wantCI)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{3.5}); s.N != 1 || s.Mean != 3.5 || s.CI95 != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeConstantSeries(t *testing.T) {
	s := Summarize([]float64{4, 4, 4, 4})
	if s.StdDev != 0 || s.CI95 != 0 {
		t.Fatalf("constant series: %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Mean: 42.1234, CI95: 1.567}
	if got, want := s.String(), "42.12 ± 1.57"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{{1, 12.706}, {29, 2.045}, {30, 2.042}, {120, 1.980}, {1000, 1.960}, {0, 0}}
	for _, c := range cases {
		if got := tCritical95(c.df); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("t(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	// Interpolated region must be monotone decreasing.
	prev := tCritical95(30)
	for df := 31; df <= 120; df++ {
		cur := tCritical95(df)
		if cur > prev+1e-12 {
			t.Fatalf("t not monotone at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
}

func TestSummarizeCIShrinksWithN(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := NewRNG(seed)
		small := make([]float64, 5)
		big := make([]float64, 50)
		for i := range big {
			v := g.NormFloat64()
			big[i] = v
			if i < 5 {
				small[i] = v
			}
		}
		// Not a strict law for arbitrary draws, but holds overwhelmingly;
		// use a generous factor to keep the property deterministic enough.
		return Summarize(big).CI95 < Summarize(small).CI95*3
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPairedDiffHandComputed(t *testing.T) {
	// d = [0.5, 1.0, 1.5]: mean 1, sd 0.5, CI = t(2)·0.5/√3.
	s, err := PairedDiff([]float64{1, 2, 3}, []float64{0.5, 1, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || math.Abs(s.Mean-1) > 1e-12 {
		t.Fatalf("paired diff = %+v", s)
	}
	if math.Abs(s.StdDev-0.5) > 1e-12 {
		t.Fatalf("StdDev = %v, want 0.5", s.StdDev)
	}
	wantCI := 4.303 * 0.5 / math.Sqrt(3)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", s.CI95, wantCI)
	}
}

func TestPairedDiffCancelsCommonNoise(t *testing.T) {
	// Perfectly correlated series with a constant offset: the differences
	// are exactly the offset, so the paired CI collapses to zero while
	// each series alone carries a wide CI.
	x := []float64{10, 40, 20, 70, 30}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v - 7
	}
	d, err := PairedDiff(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean != 7 || d.StdDev != 0 || d.CI95 != 0 {
		t.Fatalf("paired diff of offset series = %+v, want exactly 7 ± 0", d)
	}
	if indep := independentDiff(Summarize(x), Summarize(y)); indep.CI95 <= 0 {
		t.Fatalf("independent CI = %v, want > 0", indep.CI95)
	}
}

func TestPairedDiffLengthMismatch(t *testing.T) {
	if _, err := PairedDiff([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestPairedDiffDegenerate(t *testing.T) {
	s, err := PairedDiff(nil, nil)
	if err != nil || s.N != 0 {
		t.Fatalf("empty paired diff = %+v, %v", s, err)
	}
	s, err = PairedDiff([]float64{4}, []float64{1})
	if err != nil || s.N != 1 || s.Mean != 3 || s.CI95 != 0 {
		t.Fatalf("single-pair diff = %+v, %v", s, err)
	}
}

func TestIndependentDiffHandComputed(t *testing.T) {
	// Equal variances and sizes: Welch df = 2n−2 = 18, se = √(4/10+4/10).
	x := Summary{N: 10, Mean: 5, StdDev: 2}
	y := Summary{N: 10, Mean: 3, StdDev: 2}
	d := independentDiff(x, y)
	if d.N != 10 || math.Abs(d.Mean-2) > 1e-12 {
		t.Fatalf("independent diff = %+v", d)
	}
	se := math.Sqrt(0.8)
	if math.Abs(d.StdDev-se) > 1e-12 {
		t.Fatalf("se = %v, want %v", d.StdDev, se)
	}
	wantCI := 2.101 * se // t(18)
	if math.Abs(d.CI95-wantCI) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", d.CI95, wantCI)
	}
}

func TestIndependentDiffDegenerate(t *testing.T) {
	// Too few observations on either side: mean only, zero CI.
	d := independentDiff(Summary{N: 1, Mean: 4}, Summary{N: 30, Mean: 1, StdDev: 2})
	if d.N != 1 || d.Mean != 3 || d.CI95 != 0 {
		t.Fatalf("degenerate independent diff = %+v", d)
	}
	// Zero variance on both sides: exact difference, zero CI.
	d = independentDiff(Summary{N: 5, Mean: 4}, Summary{N: 5, Mean: 1})
	if d.Mean != 3 || d.CI95 != 0 {
		t.Fatalf("zero-variance independent diff = %+v", d)
	}
}

// independentDiff summarizes the difference of two independent sample
// means, x − y, with a Welch-approximate 95% CI — the analysis forced on a
// reader who only has the two per-cell summaries. It is the comparison
// point for PairedDiff: on positively correlated (paired) data the paired
// CI is no wider, usually far narrower.
func independentDiff(x, y Summary) Summary {
	out := Summary{N: x.N, Mean: x.Mean - y.Mean}
	if y.N < out.N {
		out.N = y.N
	}
	if x.N < 2 || y.N < 2 {
		return out
	}
	vx := x.StdDev * x.StdDev / float64(x.N)
	vy := y.StdDev * y.StdDev / float64(y.N)
	se := math.Sqrt(vx + vy)
	out.StdDev = se
	if se == 0 {
		return out
	}
	// Welch–Satterthwaite effective degrees of freedom.
	df := (vx + vy) * (vx + vy) / (vx*vx/float64(x.N-1) + vy*vy/float64(y.N-1))
	out.CI95 = tCritical95(int(df)) * se
	return out
}
