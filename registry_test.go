package taskdrop_test

import (
	"testing"

	taskdrop "github.com/hpcclab/taskdrop"
)

func TestNewDropperSpecs(t *testing.T) {
	cases := map[string]string{ // spec -> Name()
		"reactdrop":                   "ReactDrop",
		"none":                        "ReactDrop",
		"heuristic":                   "Heuristic",
		"heuristic:beta=1.5,eta=3":    "Heuristic",
		"optimal":                     "Optimal",
		"threshold":                   "Threshold",
		"Threshold:base=0.3,adaptive": "Threshold",
		"threshold:adaptive=false":    "Threshold",
		"approx:grace=200,beta=2":     "ApproxHeuristic",
		"THRESHOLD:BASE=0.5":          "Threshold",
	}
	for spec, want := range cases {
		p, err := taskdrop.NewDropper(spec)
		if err != nil {
			t.Errorf("NewDropper(%q): %v", spec, err)
			continue
		}
		if p.Name() != want {
			t.Errorf("NewDropper(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "bogus", "heuristic:beta=no", "heuristic:eta=0", "threshold:base=2", "optimal:x=1"} {
		if _, err := taskdrop.NewDropper(bad); err == nil {
			t.Errorf("NewDropper(%q) should error", bad)
		}
	}
}

func TestNewMapperSpecs(t *testing.T) {
	for _, spec := range []string{"PAM", "minmin", "MM", "kpb:percent=30", "random:seed=9"} {
		if _, err := taskdrop.NewMapper(spec); err != nil {
			t.Errorf("NewMapper(%q): %v", spec, err)
		}
	}
	for _, bad := range []string{"", "warp", "kpb:percent=0", "kpb:percent=101", "pam:x=1", "random:seed=soon"} {
		if _, err := taskdrop.NewMapper(bad); err == nil {
			t.Errorf("NewMapper(%q) should error", bad)
		}
	}
}

func TestNewProfileSpecs(t *testing.T) {
	for _, spec := range []string{"spec", "specint", "hc", "video", "transcoding", "homog", "spec:seed=7"} {
		if _, err := taskdrop.NewProfile(spec); err != nil {
			t.Errorf("NewProfile(%q): %v", spec, err)
		}
	}
	// A reseeded SPEC profile must differ from the default synthesis.
	a, err := taskdrop.NewProfile("spec")
	if err != nil {
		t.Fatal(err)
	}
	b, err := taskdrop.NewProfile("spec:seed=7")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.MeanMS {
		for j := range a.MeanMS[i] {
			if a.MeanMS[i][j] != b.MeanMS[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("spec:seed=7 should synthesize a different PET mean matrix")
	}
	for _, bad := range []string{"", "nope", "video:seed=1", "spec:seed=x"} {
		if _, err := taskdrop.NewProfile(bad); err == nil {
			t.Errorf("NewProfile(%q) should error", bad)
		}
	}
}

func TestRegistryNameLists(t *testing.T) {
	if len(taskdrop.MapperNames()) < 6 {
		t.Errorf("MapperNames = %v", taskdrop.MapperNames())
	}
	for _, n := range taskdrop.MapperNames() {
		if _, err := taskdrop.NewMapper(n); err != nil {
			t.Errorf("listed mapper %q does not resolve: %v", n, err)
		}
	}
	for _, n := range taskdrop.DropperNames() {
		if _, err := taskdrop.NewDropper(n); err != nil {
			t.Errorf("listed dropper %q does not resolve: %v", n, err)
		}
	}
	for _, n := range taskdrop.ProfileNames() {
		if _, err := taskdrop.NewProfile(n); err != nil {
			t.Errorf("listed profile %q does not resolve: %v", n, err)
		}
	}
}

func TestDeprecatedShimsShareRegistry(t *testing.T) {
	// The public constructors accept the parameterized grammar — one
	// resolution path for everything.
	p, err := taskdrop.NewDropper("threshold:base=0.3,adaptive")
	if err != nil || p.Name() != "Threshold" {
		t.Fatalf("NewDropper spec support broken: %v, %v", p, err)
	}
	m, err := taskdrop.NewMapper("kpb:percent=40")
	if err != nil || m.Name() != "KPB" {
		t.Fatalf("NewMapper spec support broken: %v, %v", m, err)
	}
}
