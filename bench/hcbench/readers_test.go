package main

import (
	"os"
	"strings"
	"testing"
)

func TestParseProcStatCPU(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime and stime are fields
	// 14 and 15, in clock ticks.
	line := "4242 (hc serve) (x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(line)
	if err != nil || got != 3.0 {
		t.Fatalf("parseProcStatCPU = %v, %v; want 3.0 (250+50 ticks at %d Hz)", got, err, clockTicksPerSecond)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted", bad)
		}
	}
	if _, err := cpuSeconds(os.Getpid()); err != nil {
		t.Errorf("reading this process's own stat: %v", err)
	}
	if _, err := cpuSeconds(-1); err == nil {
		t.Error("a pid that cannot exist was read")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\thcserve\nVmPeak:\t 1751556 kB\nVmHWM:\t   27648 kB\nVmRSS:\t   17852 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 27 {
		t.Fatalf("parseVmHWM = %v, %v; want 27 MiB", got, err)
	}
	for _, bad := range []string{"", "VmHWM:\t lots kB\n", "VmHWM:\t 12 pages\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
	if mb, err := peakRSSMB(0); err != nil || mb <= 0 {
		t.Errorf("this process's own peak: %v, %v", mb, err)
	}
}

func TestParseProm(t *testing.T) {
	page := `# HELP taskdrop_decisions_total Admission decisions by action.
# TYPE taskdrop_decisions_total counter
taskdrop_decisions_total{action="map"} 9311
taskdrop_decisions_total{action="defer"} 2689

taskdrop_journal_records_total 36007
taskdrop_decision_stage_latency_seconds_bucket{stage="journal",le="+Inf"} 12000
taskdrop_decision_stage_latency_seconds_sum{stage="journal"} 0.3125
taskdrop_decision_stage_latency_seconds_count{stage="journal"} 12000
taskdrop_router_upstream_latency_seconds_sum 4.5
taskdrop_router_upstream_latency_seconds_count 3500
odd_series{note="has } and spaces"} 1.5e-3 1700000000000
`
	p, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if p[`taskdrop_decisions_total{action="map"}`] != 9311 || p["taskdrop_journal_records_total"] != 36007 {
		t.Errorf("plain samples: %v", p)
	}
	if p[`odd_series{note="has } and spaces"}`] != 1.5e-3 {
		t.Errorf("label value with brace and spaces, trailing timestamp: %v", p)
	}
	sum, n := p.sumCount("taskdrop_decision_stage_latency_seconds", `stage="journal"`)
	if sum != 0.3125 || n != 12000 {
		t.Errorf("labelled histogram: %v %v", sum, n)
	}
	sum, n = p.sumCount("taskdrop_router_upstream_latency_seconds", "")
	if sum != 4.5 || n != 3500 {
		t.Errorf("bare histogram: %v %v", sum, n)
	}
	if sum, n = p.sumCount("absent", ""); sum != 0 || n != 0 {
		t.Errorf("absent family: %v %v", sum, n)
	}
	for _, bad := range []string{"no_value", "name{a=\"b\"}", "name twelve"} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}
