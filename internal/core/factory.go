package core

import (
	"fmt"

	"github.com/hpcclab/taskdrop/internal/spec"
)

// PolicyFromSpec constructs a dropping policy from a parameterized spec
// string (see package spec for the grammar). Recognized components and
// their parameters:
//
//	reactdrop (aliases: reactive, none)
//	heuristic:beta=<float ≥1>,eta=<int ≥1>
//	optimal
//	threshold:base=<float in [0,1]>,adaptive[=bool]
//	approx:beta=<float ≥1>,eta=<int ≥1>
//
// Every dropper forecasts under the engine's grace window
// (Context.Grace), which approx also values late completions by; omitted
// parameters take the paper's tuned defaults. Unknown names, unknown
// parameters and out-of-range values are errors, so every resolution path
// (CLI, experiment harness, Scenario API) fails loudly on a mistyped spec.
func PolicyFromSpec(s string) (Policy, error) {
	name, params, err := spec.Parse(s)
	if err != nil {
		return nil, err
	}
	var p Policy
	switch name {
	case "reactdrop", "reactive", "none":
		p = ReactiveOnly{}
	case "heuristic":
		h := Heuristic{Beta: params.Float("beta", DefaultBeta), Eta: params.Int("eta", DefaultEta)}
		if !(h.Beta >= 1) || h.Eta < 1 { // !(>=) so that NaN is rejected
			return nil, fmt.Errorf("core: heuristic requires beta >= 1 and eta >= 1, got %q", s)
		}
		p = h
	case "optimal":
		p = Optimal{}
	case "threshold":
		t := Threshold{Base: params.Float("base", DefaultThresholdBase), Adaptive: params.Bool("adaptive", true)}
		if !(t.Base >= 0 && t.Base <= 1) {
			return nil, fmt.Errorf("core: threshold base must be in [0,1], got %q", s)
		}
		p = t
	case "approx":
		a := ApproxHeuristic{Beta: params.Float("beta", DefaultBeta), Eta: params.Int("eta", DefaultEta)}
		if !(a.Beta >= 1) || a.Eta < 1 {
			return nil, fmt.Errorf("core: approx requires beta >= 1 and eta >= 1, got %q", s)
		}
		p = a
	default:
		return nil, fmt.Errorf("core: unknown dropping policy %q", s)
	}
	if err := params.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// PolicyNames lists the constructible policy names.
func PolicyNames() []string {
	return []string{"ReactDrop", "Heuristic", "Optimal", "Threshold", "Approx"}
}
