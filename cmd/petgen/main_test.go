package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBuildsReportsAndDumps smokes the whole flag surface: build a
// small matrix, print the report with -stats, and dump the CSV.
func TestRunBuildsReportsAndDumps(t *testing.T) {
	dumped := filepath.Join(t.TempDir(), "pet.csv")

	var out strings.Builder
	err := run([]string{
		"-profile", "video", "-samples", "50", "-bins", "8", "-stats",
		"-dump", dumped,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"PET matrix", "machines:", "mean execution time", "avg_all",
		"per-cell spread", "wrote impulse dump to " + dumped,
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if data, err := os.ReadFile(dumped); err != nil {
		t.Fatal(err)
	} else if !strings.HasPrefix(string(data), "task_type,machine_type,tick_ms,probability\n") {
		t.Error("CSV dump missing header")
	}
}

// TestRunHelpIsSuccess: -h prints usage (to stderr, keeping stdout clean)
// and exits cleanly.
func TestRunHelpIsSuccess(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-h"}, &out, &errOut); err != nil {
		t.Fatalf("-h returned %v", err)
	}
	if !strings.Contains(errOut.String(), "-profile") {
		t.Error("usage text missing flags")
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote %q to stdout; want clean data stream", out.String())
	}
}

// TestRunRejectsBadFlags covers the failure paths: unknown profile,
// unparsable flags, invalid build options, and the removed -save / -load
// (a parse error, not a silent no-op).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-profile", "nosuch"},
		{"-samples", "notanumber"},
		{"-samples", "0"},
		{"-bins", "0"},
		{"-save", "x"},
		{"-load", "x"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
