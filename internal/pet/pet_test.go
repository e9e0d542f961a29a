package pet

import (
	"math"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

func buildSPEC(t testing.TB) *Matrix {
	t.Helper()
	return Build(SPECProfile(DefaultProfileSeed), DefaultProfileSeed, DefaultBuildOptions())
}

func TestSPECProfileShape(t *testing.T) {
	p := SPECProfile(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.TaskTypeNames); got != 12 {
		t.Fatalf("task types = %d, want 12", got)
	}
	if got := len(p.MachineTypeNames); got != 8 {
		t.Fatalf("machine types = %d, want 8", got)
	}
	if got := p.TotalMachines(); got != 8 {
		t.Fatalf("machines = %d, want 8", got)
	}
	// Means must stay within a plausible multiple of the paper's
	// 50–200 ms base range (factors are in [0.5, 2)).
	for i, row := range p.MeanMS {
		for j, v := range row {
			if v < 25 || v > 400 {
				t.Fatalf("MeanMS[%d][%d] = %v outside [25,400]", i, j, v)
			}
		}
	}
}

func TestSPECProfileIsInconsistent(t *testing.T) {
	p := SPECProfile(DefaultProfileSeed)
	// Inconsistent heterogeneity: there must exist task types i1, i2 and
	// machines j1, j2 with opposite speed orders.
	inconsistent := false
	nt, nm := len(p.TaskTypeNames), len(p.MachineTypeNames)
	for i1 := 0; i1 < nt && !inconsistent; i1++ {
		for i2 := i1 + 1; i2 < nt && !inconsistent; i2++ {
			for j1 := 0; j1 < nm && !inconsistent; j1++ {
				for j2 := j1 + 1; j2 < nm && !inconsistent; j2++ {
					a := p.MeanMS[i1][j1] < p.MeanMS[i1][j2]
					b := p.MeanMS[i2][j1] < p.MeanMS[i2][j2]
					if a != b {
						inconsistent = true
					}
				}
			}
		}
	}
	if !inconsistent {
		t.Fatal("SPEC profile is not inconsistently heterogeneous")
	}
}

func TestSPECProfileDeterministicInSeed(t *testing.T) {
	a, b := SPECProfile(7), SPECProfile(7)
	for i := range a.MeanMS {
		for j := range a.MeanMS[i] {
			if a.MeanMS[i][j] != b.MeanMS[i][j] {
				t.Fatal("same seed must produce identical profiles")
			}
		}
	}
	c := SPECProfile(8)
	same := true
	for i := range a.MeanMS {
		for j := range a.MeanMS[i] {
			if a.MeanMS[i][j] != c.MeanMS[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds must produce different mean matrices")
	}
}

func TestVideoProfileShape(t *testing.T) {
	p := VideoProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.TaskTypeNames) != 4 || len(p.MachineTypeNames) != 4 {
		t.Fatalf("video profile is %dx%d, want 4x4", len(p.TaskTypeNames), len(p.MachineTypeNames))
	}
	if p.TotalMachines() != 8 {
		t.Fatalf("machines = %d, want 8 (two per type)", p.TotalMachines())
	}
	// §V-H: execution time variation across task types is high — the most
	// expensive type must cost several times the cheapest on every machine
	// type.
	for j := range p.MachineTypeNames {
		lo, hi := math.Inf(1), 0.0
		for i := range p.TaskTypeNames {
			v := p.MeanMS[i][j]
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi/lo < 2 {
			t.Fatalf("machine type %d: max/min mean = %.2f, want >= 2", j, hi/lo)
		}
	}
}

func TestHomogeneousProfileShape(t *testing.T) {
	p := HomogeneousProfile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.MachineTypeNames) != 1 || p.TotalMachines() != 8 {
		t.Fatalf("homogeneous profile: %d types, %d machines", len(p.MachineTypeNames), p.TotalMachines())
	}
}

func TestProfileValidateCatchesErrors(t *testing.T) {
	base := VideoProfile()
	mut := func(f func(*Profile)) Profile {
		p := VideoProfile()
		f(&p)
		return p
	}
	bad := []Profile{
		mut(func(p *Profile) { p.TaskTypeNames = nil }),
		mut(func(p *Profile) { p.MeanMS = p.MeanMS[:2] }),
		mut(func(p *Profile) { p.MeanMS[1] = p.MeanMS[1][:1] }),
		mut(func(p *Profile) { p.MeanMS[0][0] = 0 }),
		mut(func(p *Profile) { p.MachinesPerType = []int{1} }),
		mut(func(p *Profile) { p.MachinesPerType[2] = 0 }),
		mut(func(p *Profile) { p.PriceHour = nil }),
		mut(func(p *Profile) { p.GammaScaleRange = [2]float64{0, 5} }),
		mut(func(p *Profile) { p.GammaScaleRange = [2]float64{5, 1} }),
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline should validate: %v", err)
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("mutant %d passed validation", i)
		}
	}
}

func TestBuildProducesNormalizedPMFs(t *testing.T) {
	m := buildSPEC(t)
	for i := 0; i < m.NumTaskTypes(); i++ {
		for j := 0; j < m.NumMachineTypes(); j++ {
			cell := m.ExecPMF(TaskType(i), MachineType(j))
			if got := cell.TotalMass(); math.Abs(got-1) > 1e-9 {
				t.Fatalf("cell (%d,%d) mass = %v", i, j, got)
			}
			if cell.Len() > DefaultBuildOptions().BinsPerPMF {
				t.Fatalf("cell (%d,%d) has %d impulses > bins", i, j, cell.Len())
			}
			if cell.Min() < 1 {
				t.Fatalf("cell (%d,%d) min %d < 1 tick", i, j, cell.Min())
			}
		}
	}
}

func TestBuildMeansTrackProfile(t *testing.T) {
	m := buildSPEC(t)
	p := m.Profile()
	for i := 0; i < m.NumTaskTypes(); i++ {
		for j := 0; j < m.NumMachineTypes(); j++ {
			want := p.MeanMS[i][j]
			got := m.CellMean(TaskType(i), MachineType(j))
			// 500 Gamma samples with scale ≤ 20: sampling error is a few
			// ms; allow 15% + 5 ms.
			if math.Abs(got-want) > 0.15*want+5 {
				t.Fatalf("cell (%d,%d) mean %v, profile mean %v", i, j, got, want)
			}
		}
	}
}

func TestTypeMeanAndMeanAll(t *testing.T) {
	m := buildSPEC(t)
	var grand float64
	for i := 0; i < m.NumTaskTypes(); i++ {
		var row float64
		for j := 0; j < m.NumMachineTypes(); j++ {
			row += m.CellMean(TaskType(i), MachineType(j))
		}
		row /= float64(m.NumMachineTypes())
		if math.Abs(row-m.TypeMean(TaskType(i))) > 1e-9 {
			t.Fatalf("TypeMean(%d) = %v, recomputed %v", i, m.TypeMean(TaskType(i)), row)
		}
		grand += row
	}
	grand /= float64(m.NumTaskTypes())
	if math.Abs(grand-m.MeanAll()) > 1e-9 {
		t.Fatalf("MeanAll = %v, recomputed %v", m.MeanAll(), grand)
	}
}

func TestMachinesExpansion(t *testing.T) {
	m := Build(VideoProfile(), 3, DefaultBuildOptions())
	specs := m.Machines()
	if len(specs) != 8 {
		t.Fatalf("machines = %d, want 8", len(specs))
	}
	perType := map[MachineType]int{}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("machine %d has Index %d", i, s.Index)
		}
		perType[s.Type]++
		if s.PriceHour <= 0 {
			t.Fatalf("machine %d has no price", i)
		}
		if !strings.Contains(s.Name, "#") {
			t.Fatalf("machine name %q lacks replica suffix", s.Name)
		}
	}
	for mt, n := range perType {
		if n != 2 {
			t.Fatalf("machine type %d has %d replicas, want 2", mt, n)
		}
	}
}

func TestDrawMatchesDistribution(t *testing.T) {
	m := buildSPEC(t)
	rng := stats.NewRNG(17)
	d := m.dists[0][0] // the cell's ground-truth Gamma law
	const n = 50_000
	var sum float64
	for i := 0; i < n; i++ {
		v := m.Draw(rng, 0, 0)
		if v < 1 {
			t.Fatalf("draw %d < 1 tick", v)
		}
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-d.Mean()) > 0.05*d.Mean()+1 {
		t.Fatalf("draw mean = %v, distribution mean %v", mean, d.Mean())
	}
}

func TestBuildDeterminism(t *testing.T) {
	a := Build(SPECProfile(1), 5, DefaultBuildOptions())
	b := Build(SPECProfile(1), 5, DefaultBuildOptions())
	for i := 0; i < a.NumTaskTypes(); i++ {
		for j := 0; j < a.NumMachineTypes(); j++ {
			pa := a.ExecPMF(TaskType(i), MachineType(j))
			pb := b.ExecPMF(TaskType(i), MachineType(j))
			if !pa.Equal(pb) {
				t.Fatalf("cell (%d,%d) differs across identical builds", i, j)
			}
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"spec", "SPECint", "video", "transcoding", "homog", "HOMOGENEOUS"} {
		if _, err := ProfileFromSpec(name); err != nil {
			t.Errorf("ProfileFromSpec(%q): %v", name, err)
		}
	}
	if _, err := ProfileFromSpec("nope"); err == nil {
		t.Error("unknown profile should error")
	}
	if len(ProfileNames()) != 3 {
		t.Errorf("ProfileNames = %v", ProfileNames())
	}
}

func TestBuildPanicsOnBadOptions(t *testing.T) {
	for _, opt := range []BuildOptions{{0, 10}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Build with %+v should panic", opt)
				}
			}()
			Build(VideoProfile(), 1, opt)
		}()
	}
}

var sinkPMF pmf.PMF

func BenchmarkBuildSPEC(b *testing.B) {
	p := SPECProfile(DefaultProfileSeed)
	opt := DefaultBuildOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := Build(p, 1, opt)
		sinkPMF = m.ExecPMF(0, 0)
	}
}
