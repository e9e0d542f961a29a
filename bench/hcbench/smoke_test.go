package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
)

// smokeEnv builds the real binaries into the test's temporary directory.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	benchDir, err := moduleDir()
	if err != nil {
		t.Fatal(err)
	}
	e, cleanup, err := prepareEnv(benchDir, filepath.Join(t.TempDir(), "build"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return e
}

// small shrinks an online workload to 300 tasks, keeping its shape.
func small(t *testing.T, name string) workloadSpec {
	t.Helper()
	spec, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	spec.tasks = 300
	if spec.cut > 0 {
		spec.cut = 175
	}
	return spec
}

// TestSmokeEveryWorkload runs one round of every workload with all oracles
// on — online == offline, recovered == uninterrupted, every task
// acknowledged once, journals verified — so the harness cannot rot
// unnoticed.
func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	ctx := context.Background()
	for _, w := range workloads {
		var r runner
		if w.offline {
			r = &offlineRunner{env: e, seed: 1}
		} else {
			or, err := newOnlineRunner(small(t, w.name), e, 1)
			if err != nil {
				t.Fatal(err)
			}
			r = or
		}
		for _, traced := range []bool{false, true} {
			if traced && w.offline {
				continue
			}
			res := r.round(ctx, traced, true)
			for _, err := range res.errs {
				t.Errorf("%s (traced %v): %v", w.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s: attempted %d, failed %d", w.name, res.attempted, res.failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.e2e[m.name]; !ok || v <= 0 {
					t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v)
				}
			}
			if traced {
				for _, k := range []string{"stage.calculus_us", "stage.journal_us", "stage.residual_us"} {
					if res.layer[k] <= 0 {
						t.Errorf("%s traced: %s = %v", w.name, k, res.layer[k])
					}
				}
				if w.fleet && (res.layer["stage.proxy_us"] <= 0 || res.layer["front.upstream_us"] <= 0) {
					t.Errorf("%s traced: router stages missing: %v", w.name, res.layer)
				}
			}
			if w.cut > 0 && res.layer["journal.recover_ms"] <= 0 {
				t.Errorf("%s: no recovery time", w.name)
			}
		}
	}
}

// TestSeedReachesOnlyTheTrace: the deterministic metrics repeat exactly
// for one seed and change for another.
func TestSeedReachesOnlyTheTrace(t *testing.T) {
	e := smokeEnv(t)
	ctx := context.Background()
	run := func(seed int64) (robustness, disk float64) {
		r, err := newOnlineRunner(small(t, "serve-recover"), e, seed)
		if err != nil {
			t.Fatal(err)
		}
		res := r.round(ctx, false, false)
		for _, err := range res.errs {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return res.e2e["robustness_pct"], res.e2e["disk_bytes_per_task"]
	}
	r1, d1 := run(1)
	r1b, d1b := run(1)
	r2, d2 := run(2)
	if r1 != r1b || d1 != d1b {
		t.Errorf("seed 1 twice: robustness %v vs %v, disk %v vs %v", r1, r1b, d1, d1b)
	}
	if r1 == r2 || d1 == d2 {
		t.Errorf("seeds 1 and 2 agree: robustness %v, disk %v", r1, d1)
	}
}

// TestBrokenRunFails: a server started on the wrong profile answers
// wrongly, and the round must say so.
func TestBrokenRunFails(t *testing.T) {
	e := smokeEnv(t)
	r, err := newOnlineRunner(small(t, "serve-open"), e, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.profile = "homog"
	res := r.round(context.Background(), false, true)
	if len(res.errs) == 0 || res.failed == 0 {
		t.Fatalf("a server on the wrong profile passed: %+v", res)
	}
}

// TestLadderFillsEveryRung: the in-process ladder reports every per-layer
// metric the stage runs do not.
func TestLadderFillsEveryRung(t *testing.T) {
	e := smokeEnv(t)
	out, errs := runLadder(context.Background(), e, 1)
	for _, err := range errs {
		t.Error(err)
	}
	// These come from the servers' own counters or the client, in rounds.
	fromRounds := func(name string) bool {
		for _, p := range []string{"stage.", "client.", "host.", "raw.", "proc.", "trace.", "front.upstream_us",
			"journal.recover_ms", "journal.records_per_task", "journal.wal_bytes_per_task",
			"journal.snapshot_bytes_per_task", "journal.fsyncs"} {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for _, m := range perLayer {
		if fromRounds(m.name) {
			continue
		}
		if v, ok := out[m.name]; !ok || v <= 0 {
			t.Errorf("ladder: %s = %v", m.name, v)
		}
	}
}
