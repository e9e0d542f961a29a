// Command obslint asserts the observability surface of a running hcserve
// instance from CI: it lints the /metrics exposition against the
// Prometheus text-format grammar (HELP/TYPE present, families contiguous,
// histograms cumulative and complete) and checks /debug/traces for
// complete, monotone stage-timed traces.
//
//	obslint -metrics http://127.0.0.1:9090/metrics
//	obslint -metrics http://127.0.0.1:9090/metrics -require taskdrop_membership_ops_total,taskdrop_dedup_hits_total
//	obslint -traces http://127.0.0.1:9090/debug/traces -min-traces 1
//
// Exit status 0 means every requested check passed; failures list each
// violation on stderr.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/hpcclab/taskdrop/internal/telemetry"
)

// traceSnapshot mirrors the service's /debug/traces payload.
type traceSnapshot struct {
	SampleEvery int               `json:"sample_every"`
	Traces      []telemetry.Trace `json:"traces"`
}

// completeStages are the spans every fully traced decision must carry.
// Dropper is legitimately absent (no mapping event fired during the feed)
// and journal is absent on unjournaled servers.
var completeStages = []telemetry.Stage{
	telemetry.StageRoute, telemetry.StageWait, telemetry.StageCalculus, telemetry.StageAck,
}

// checkTrace validates one trace's span geometry: offsets non-negative,
// every span well-formed (start <= end), spans sorted by start offset.
// Returns the problems found.
func checkTrace(t *telemetry.Trace) []string {
	var issues []string
	prevStart := int64(-1)
	for _, sp := range t.Spans {
		if sp.StartNS < 0 {
			issues = append(issues, fmt.Sprintf("seq %d: span %s starts before the trace origin (%d ns)", t.Seq, sp.Stage, sp.StartNS))
		}
		if sp.EndNS < sp.StartNS {
			issues = append(issues, fmt.Sprintf("seq %d: span %s ends before it starts [%d, %d]", t.Seq, sp.Stage, sp.StartNS, sp.EndNS))
		}
		if sp.StartNS < prevStart {
			issues = append(issues, fmt.Sprintf("seq %d: span %s out of order (start %d after a span starting at %d)", t.Seq, sp.Stage, sp.StartNS, prevStart))
		}
		prevStart = sp.StartNS
	}
	return issues
}

// isComplete reports whether the trace carries every mandatory stage.
func isComplete(t *telemetry.Trace) bool {
	have := make(map[telemetry.Stage]bool, len(t.Spans))
	for _, sp := range t.Spans {
		have[sp.Stage] = true
	}
	for _, st := range completeStages {
		if !have[st] {
			return false
		}
	}
	return true
}

// missingFamilies returns the families named in the comma-separated
// require list that never appear as a sample in the exposition body.
func missingFamilies(body []byte, require string) []string {
	if strings.TrimSpace(require) == "" {
		return nil
	}
	present := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		present[name] = true
	}
	var missing []string
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want != "" && !present[want] {
			missing = append(missing, want)
		}
	}
	return missing
}

func main() {
	var (
		metricsURL = flag.String("metrics", "", "lint this Prometheus exposition URL")
		require    = flag.String("require", "", "comma-separated metric families that must be present at -metrics")
		tracesURL  = flag.String("traces", "", "check this /debug/traces URL")
		minTraces  = flag.Int("min-traces", 1, "minimum complete traces required at -traces")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request timeout")
	)
	flag.Parse()

	if *metricsURL == "" && *tracesURL == "" {
		fmt.Fprintln(os.Stderr, "obslint: nothing to do: pass -metrics and/or -traces")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	failed := false

	if *metricsURL != "" {
		resp, err := client.Get(*metricsURL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obslint: GET %s: %v\n", *metricsURL, err)
			os.Exit(1)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obslint: read %s: %v\n", *metricsURL, err)
			os.Exit(1)
		}
		issues := telemetry.Lint(bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "obslint: GET %s: status %d\n", *metricsURL, resp.StatusCode)
			failed = true
		}
		for _, is := range issues {
			fmt.Fprintf(os.Stderr, "obslint: metrics: %s\n", is)
		}
		for _, missing := range missingFamilies(body, *require) {
			fmt.Fprintf(os.Stderr, "obslint: metrics: required family %s absent\n", missing)
			failed = true
		}
		if len(issues) > 0 {
			failed = true
		} else if resp.StatusCode == http.StatusOK && !failed {
			fmt.Printf("metrics lint clean: %s\n", *metricsURL)
		}
	}

	if *tracesURL != "" {
		resp, err := client.Get(*tracesURL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obslint: GET %s: %v\n", *tracesURL, err)
			os.Exit(1)
		}
		var snap traceSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obslint: decode %s: %v\n", *tracesURL, err)
			os.Exit(1)
		}
		complete := 0
		for i := range snap.Traces {
			t := &snap.Traces[i]
			issues := checkTrace(t)
			for _, is := range issues {
				fmt.Fprintf(os.Stderr, "obslint: traces: %s\n", is)
			}
			if len(issues) > 0 {
				failed = true
				continue
			}
			if isComplete(t) {
				complete++
			}
		}
		if complete < *minTraces {
			fmt.Fprintf(os.Stderr, "obslint: traces: %d complete traces (of %d retained), want >= %d\n",
				complete, len(snap.Traces), *minTraces)
			failed = true
		} else {
			fmt.Printf("traces ok: %d complete of %d retained (sample_every=%d)\n",
				complete, len(snap.Traces), snap.SampleEvery)
		}
	}

	if failed {
		os.Exit(1)
	}
}
