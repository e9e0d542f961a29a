package pet

import (
	"fmt"
	"strings"
	"sync"

	"github.com/hpcclab/taskdrop/internal/spec"
)

// DefaultProfileSeed seeds the synthesized parts of the named profiles so
// that "the SPEC system" denotes one reproducible machine/task mix
// everywhere (CLIs, benches, tests).
const DefaultProfileSeed = 42

// ProfileFromSpec constructs a named evaluation profile from a
// parameterized spec string (see package spec for the grammar):
//
//	spec:seed=<int64>   (aliases: specint, hc)
//	video               (alias: transcoding)
//	homog               (aliases: homogeneous, homo)
//
// The seed parameter re-synthesizes the SPEC profile's randomized machine
// mix; the video and homogeneous profiles are fully determined and take no
// parameters.
func ProfileFromSpec(s string) (Profile, error) {
	name, params, err := spec.Parse(s)
	if err != nil {
		return Profile{}, err
	}
	var p Profile
	switch name {
	case "spec", "specint", "hc":
		p = SPECProfile(params.Int64("seed", DefaultProfileSeed))
	case "video", "transcoding":
		p = VideoProfile()
	case "homog", "homogeneous", "homo":
		p = HomogeneousProfile()
	default:
		return Profile{}, fmt.Errorf("pet: unknown profile %q", s)
	}
	if err := params.Finish(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// ProfileNames lists the constructible profile names.
func ProfileNames() []string { return []string{"spec", "video", "homog"} }

// matrixCache shares built PET matrices across every consumer that names a
// system by profile spec (the Scenario API, the admission service, the
// load generator), keyed by the normalized spec. A profile spec fully
// determines its matrix — the build seed is the fixed DefaultProfileSeed —
// so the cache is semantically transparent; it spares repeated PMF
// synthesis, and guarantees a server and a client resolving the same spec
// in different processes still agree bit-for-bit (Build is deterministic).
// Matrices are read-only after Build, so sharing across engines is safe.
var matrixCache sync.Map // normalized profile spec -> *Matrix

// CachedMatrix resolves a profile spec and returns its built PET matrix,
// building at most once per spec per process. Safe for concurrent use.
func CachedMatrix(profileSpec string) (*Matrix, error) {
	key := strings.ToLower(strings.TrimSpace(profileSpec))
	if m, ok := matrixCache.Load(key); ok {
		return m.(*Matrix), nil
	}
	p, err := ProfileFromSpec(profileSpec)
	if err != nil {
		return nil, err
	}
	m := Build(p, DefaultProfileSeed, DefaultBuildOptions())
	// Two racing builders produce identical matrices; keep the first stored
	// so every caller shares one instance.
	actual, _ := matrixCache.LoadOrStore(key, m)
	return actual.(*Matrix), nil
}
