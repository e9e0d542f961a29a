package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promSamples holds one scrape of a /metrics page: sample value by series,
// the series written exactly as exposed (`name` or `name{k="v",...}`).
type promSamples map[string]float64

// parseProm reads Prometheus text exposition. Comment and blank lines are
// skipped; a trailing timestamp is ignored; a malformed line is an error,
// so a scrape that silently lost a series cannot pass for a zero.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the first space after the closing brace, if
		// there is one: label values may hold spaces.
		cut := strings.IndexByte(line, ' ')
		if b := strings.LastIndexByte(line, '}'); b >= 0 {
			cut = b + 1
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

// scrape fetches and parses base/metrics.
func scrape(base string) (promSamples, error) {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// sumCount returns the _sum and _count of a histogram family, optionally
// restricted to one label set written as it appears between the braces
// (e.g. `stage="journal"`).
func (p promSamples) sumCount(family, labels string) (sum, count float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return p[family+"_sum"+suffix], p[family+"_count"+suffix]
}
