// Package pet implements the Probabilistic Execution Time (PET) matrix of
// the paper: for every (task type, machine type) pair it stores a discrete
// PMF modelling the uncertain execution time, learned by sampling a Gamma
// law and histogramming the samples exactly as described in §V-A.
//
// The package also ships the three workload profiles used in the
// evaluation: a 12-task-type × 8-machine inconsistently heterogeneous
// system seeded from SPECint-like means, a 4-task-type × 4-VM-type video
// transcoding system, and a homogeneous 8-machine system.
package pet

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/pmf"
	"github.com/hpcclab/taskdrop/internal/stats"
)

// TaskType indexes a task type (row of the PET matrix).
type TaskType int

// MachineType indexes a machine type (column of the PET matrix).
type MachineType int

// GammaDist is the ground-truth execution time law of one PET cell. The
// simulator draws realized execution times from it; the scheduler only ever
// sees the histogram PMF estimated from samples of it.
type GammaDist struct {
	Shape float64
	Scale float64
}

// Mean returns the expected value Shape·Scale.
func (g GammaDist) Mean() float64 { return g.Shape * g.Scale }

// MachineSpec is one physical machine of the system.
type MachineSpec struct {
	Index     int         // position in the flattened machine list
	Type      MachineType // column of the PET matrix
	Name      string      // display name, e.g. "GPU (g4dn)#0"
	PriceHour float64     // cost of one busy hour, USD
}

// Profile is the declarative description of an HC system: task and machine
// type names, the mean execution time (in ms) of every task type on every
// machine type, how many physical machines exist per type, and pricing.
type Profile struct {
	Name             string
	TaskTypeNames    []string
	MachineTypeNames []string
	// MeanMS[i][j] is the mean execution time of task type i on machine
	// type j, in milliseconds.
	MeanMS [][]float64
	// MachinesPerType[j] is the number of physical machines of type j.
	MachinesPerType []int
	// PriceHour[j] is the hourly price of a machine of type j, USD.
	PriceHour []float64
	// GammaScaleRange bounds the per-cell Gamma scale parameter θ, drawn
	// uniformly per cell at Build time (paper: U[1,20]).
	GammaScaleRange [2]float64
}

// Validate checks internal consistency of the profile.
func (p *Profile) Validate() error {
	nt, nm := len(p.TaskTypeNames), len(p.MachineTypeNames)
	if nt == 0 || nm == 0 {
		return fmt.Errorf("pet: profile %q has no task or machine types", p.Name)
	}
	if len(p.MeanMS) != nt {
		return fmt.Errorf("pet: profile %q MeanMS has %d rows, want %d", p.Name, len(p.MeanMS), nt)
	}
	for i, row := range p.MeanMS {
		if len(row) != nm {
			return fmt.Errorf("pet: profile %q MeanMS row %d has %d cols, want %d", p.Name, i, len(row), nm)
		}
		for j, v := range row {
			if v <= 0 {
				return fmt.Errorf("pet: profile %q MeanMS[%d][%d] = %v, want > 0", p.Name, i, j, v)
			}
		}
	}
	if len(p.MachinesPerType) != nm {
		return fmt.Errorf("pet: profile %q MachinesPerType has %d entries, want %d", p.Name, len(p.MachinesPerType), nm)
	}
	for j, n := range p.MachinesPerType {
		if n < 1 {
			return fmt.Errorf("pet: profile %q MachinesPerType[%d] = %d, want >= 1", p.Name, j, n)
		}
	}
	if len(p.PriceHour) != nm {
		return fmt.Errorf("pet: profile %q PriceHour has %d entries, want %d", p.Name, len(p.PriceHour), nm)
	}
	lo, hi := p.GammaScaleRange[0], p.GammaScaleRange[1]
	if lo <= 0 || hi < lo {
		return fmt.Errorf("pet: profile %q has invalid Gamma scale range [%v,%v]", p.Name, lo, hi)
	}
	return nil
}

// TotalMachines returns the number of physical machines across all types.
func (p *Profile) TotalMachines() int {
	n := 0
	for _, m := range p.MachinesPerType {
		n += m
	}
	return n
}

// BuildOptions tunes PET construction.
type BuildOptions struct {
	// SamplesPerCell is the number of Gamma samples histogrammed per PET
	// cell (paper: 500).
	SamplesPerCell int
	// BinsPerPMF bounds the impulse count of each execution-time PMF.
	BinsPerPMF int
}

// DefaultBuildOptions mirrors §V-A of the paper.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{SamplesPerCell: 500, BinsPerPMF: 25}
}

// Matrix is a built PET matrix: per-cell execution-time PMFs, their means,
// and the ground-truth Gamma laws the cells were sampled from.
type Matrix struct {
	profile  Profile
	dists    [][]GammaDist
	pmfs     [][]pmf.PMF
	cellMean [][]float64 // mean of the estimated PMF, ms
	typeMean []float64   // avg_i: mean over machine types, ms
	meanAll  float64     // avg_all: mean over all cells, ms
	machines []MachineSpec
}

// Build samples and histograms every PET cell. The seed makes the matrix
// fully reproducible; all randomness (scale draws and execution-time
// samples) derives from it. It panics on an invalid profile so that a
// malformed hard-coded profile fails loudly at startup.
func Build(p Profile, seed int64, opt BuildOptions) *Matrix {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if opt.SamplesPerCell <= 0 || opt.BinsPerPMF <= 0 {
		panic("pet: BuildOptions fields must be positive")
	}
	rng := stats.NewRNG(seed)
	nt, nm := len(p.TaskTypeNames), len(p.MachineTypeNames)
	m := &Matrix{
		profile:  p,
		dists:    make([][]GammaDist, nt),
		pmfs:     make([][]pmf.PMF, nt),
		cellMean: make([][]float64, nt),
		typeMean: make([]float64, nt),
	}
	var grand float64
	for i := 0; i < nt; i++ {
		m.dists[i] = make([]GammaDist, nm)
		m.pmfs[i] = make([]pmf.PMF, nm)
		m.cellMean[i] = make([]float64, nm)
		var rowSum float64
		for j := 0; j < nm; j++ {
			scale := rng.UniformRange(p.GammaScaleRange[0], p.GammaScaleRange[1])
			mean := p.MeanMS[i][j]
			d := GammaDist{Shape: mean / scale, Scale: scale}
			m.dists[i][j] = d
			samples := make([]pmf.Tick, opt.SamplesPerCell)
			for k := range samples {
				samples[k] = tickFromMS(rng.Gamma(d.Shape, d.Scale))
			}
			cell := pmf.FromSamples(samples, opt.BinsPerPMF)
			m.pmfs[i][j] = cell
			m.cellMean[i][j] = cell.Mean()
			rowSum += cell.Mean()
		}
		m.typeMean[i] = rowSum / float64(nm)
		grand += rowSum
	}
	m.meanAll = grand / float64(nt*nm)
	idx := 0
	for j := 0; j < nm; j++ {
		for k := 0; k < p.MachinesPerType[j]; k++ {
			m.machines = append(m.machines, MachineSpec{
				Index:     idx,
				Type:      MachineType(j),
				Name:      fmt.Sprintf("%s#%d", p.MachineTypeNames[j], k),
				PriceHour: p.PriceHour[j],
			})
			idx++
		}
	}
	return m
}

// tickFromMS rounds a millisecond duration to the tick grid, clamping to a
// minimum of one tick.
func tickFromMS(ms float64) pmf.Tick {
	t := pmf.Tick(ms + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

// Profile returns the profile the matrix was built from.
func (m *Matrix) Profile() Profile { return m.profile }

// NumTaskTypes returns the number of task types (PET rows).
func (m *Matrix) NumTaskTypes() int { return len(m.profile.TaskTypeNames) }

// NumMachineTypes returns the number of machine types (PET columns).
func (m *Matrix) NumMachineTypes() int { return len(m.profile.MachineTypeNames) }

// Machines returns the flattened physical machine list. The returned slice
// is shared and must not be modified.
func (m *Matrix) Machines() []MachineSpec { return m.machines }

// ExecPMF returns the estimated execution-time PMF of task type t on
// machine type mt. The PMF is shared; callers must not modify it.
func (m *Matrix) ExecPMF(t TaskType, mt MachineType) pmf.PMF { return m.pmfs[t][mt] }

// CellMean returns the mean (ms) of the estimated PMF for (t, mt).
func (m *Matrix) CellMean(t TaskType, mt MachineType) float64 { return m.cellMean[t][mt] }

// TypeMean returns avg_i of the deadline rule: the mean execution time of
// task type t across machine types, in ms.
func (m *Matrix) TypeMean(t TaskType) float64 { return m.typeMean[t] }

// MeanAll returns avg_all of the deadline rule: the grand mean execution
// time over all PET cells, in ms.
func (m *Matrix) MeanAll() float64 { return m.meanAll }

// Draw samples a realized execution time for task type t on machine type
// mt from the ground-truth law — the Gamma distribution for Build
// matrices, the cell PMF itself for FromPMFs matrices.
func (m *Matrix) Draw(rng *stats.RNG, t TaskType, mt MachineType) pmf.Tick {
	if m.dists == nil {
		return drawFromPMF(rng, m.pmfs[t][mt])
	}
	d := m.dists[t][mt]
	return tickFromMS(rng.Gamma(d.Shape, d.Scale))
}
