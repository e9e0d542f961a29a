package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint checks a Prometheus text-format (version 0.0.4) exposition against
// the grammar and the conventions this service commits to:
//
//   - every sampled family declares # HELP (non-empty) and # TYPE before
//     its first sample, TYPE naming a known type;
//   - metric and label names match the Prometheus charset, label values
//     are properly quoted, sample values parse as floats;
//   - a family's lines are contiguous (no interleaving) and no series
//     (name + label set) appears twice;
//   - histograms are well-formed per label set: a "+Inf" bucket exists,
//     bucket counts are cumulative (non-decreasing by le), _count equals
//     the "+Inf" bucket, and _sum/_count accompany the buckets;
//   - counter samples are non-negative.
//
// It returns one human-readable issue per violation (empty = clean). It
// is intentionally a linter, not a parser-library dependency, and it
// shares no code with Writer: the grammar check must stay independent of
// the code under test.
func Lint(r io.Reader) []string {
	l := &linter{
		types: make(map[string]string),
		helps: make(map[string]bool),
		done:  make(map[string]bool),
		seen:  make(map[string]bool),
		hists: make(map[string]map[string]*histAgg),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		l.line(n, sc.Text())
	}
	if err := sc.Err(); err != nil {
		l.issuef(n, "read: %v", err)
	}
	l.finish()
	return l.issues
}

type bucketSample struct {
	le float64
	v  float64
}

// histAgg accumulates one histogram series (family + label signature
// without le) for the end-of-exposition consistency checks.
type histAgg struct {
	line     int
	buckets  []bucketSample
	sum      float64
	count    float64
	hasSum   bool
	hasCount bool
}

type linter struct {
	issues []string
	types  map[string]string // family -> declared type
	helps  map[string]bool   // family -> HELP seen
	done   map[string]bool   // family blocks already closed
	seen   map[string]bool   // full series (name+labels) seen
	hists  map[string]map[string]*histAgg
	cur    string // family of the current contiguous block
}

func (l *linter) issuef(line int, format string, args ...any) {
	l.issues = append(l.issues, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (l *linter) line(n int, s string) {
	if strings.TrimSpace(s) == "" {
		return
	}
	if strings.HasPrefix(s, "#") {
		l.comment(n, s)
		return
	}
	l.sample(n, s)
}

func (l *linter) comment(n int, s string) {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 2 {
		return // a bare comment is legal
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			l.issuef(n, "malformed HELP line: %q", s)
			return
		}
		name := fields[2]
		if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
			l.issuef(n, "HELP for %s has an empty docstring", name)
		}
		if l.helps[name] {
			l.issuef(n, "duplicate HELP for %s", name)
		}
		l.helps[name] = true
	case "TYPE":
		if len(fields) < 4 || !validMetricName(fields[2]) {
			l.issuef(n, "malformed TYPE line: %q", s)
			return
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			l.issuef(n, "TYPE for %s names unknown type %q", name, typ)
		}
		if _, dup := l.types[name]; dup {
			l.issuef(n, "duplicate TYPE for %s", name)
		}
		if l.done[name] || l.cur == name {
			l.issuef(n, "TYPE for %s after its samples", name)
		}
		l.types[name] = typ
	}
}

func (l *linter) sample(n int, s string) {
	name, labels, value, ok := l.parseSample(n, s)
	if !ok {
		return
	}
	family, sub := l.family(name, labels)
	typ, typed := l.types[family]
	if !typed {
		l.issuef(n, "sample %s has no preceding # TYPE", name)
	}
	if !l.helps[family] {
		l.issuef(n, "sample %s has no preceding # HELP", name)
	}

	// Contiguity: a family's lines form one block.
	if family != l.cur {
		if l.cur != "" {
			l.done[l.cur] = true
		}
		if l.done[family] {
			l.issuef(n, "family %s split across the exposition", family)
		}
		l.cur = family
	}

	series := name + "{" + canonicalLabels(labels) + "}"
	if l.seen[series] {
		l.issuef(n, "duplicate series %s", series)
	}
	l.seen[series] = true

	switch typ {
	case "counter":
		if value < 0 {
			l.issuef(n, "counter %s has negative value %g", name, value)
		}
	case "histogram":
		sig := canonicalLabelsExcept(labels, "le")
		bySig := l.hists[family]
		if bySig == nil {
			bySig = make(map[string]*histAgg)
			l.hists[family] = bySig
		}
		agg := bySig[sig]
		if agg == nil {
			agg = &histAgg{line: n}
			bySig[sig] = agg
		}
		switch sub {
		case "bucket":
			le, found := labelValue(labels, "le")
			if !found {
				l.issuef(n, "histogram bucket %s without an le label", name)
				return
			}
			bound, err := parseFloat(le)
			if err != nil {
				l.issuef(n, "histogram bucket %s has unparseable le=%q", name, le)
				return
			}
			agg.buckets = append(agg.buckets, bucketSample{le: bound, v: value})
		case "sum":
			agg.sum, agg.hasSum = value, true
		case "count":
			agg.count, agg.hasCount = value, true
		default:
			l.issuef(n, "histogram family %s has plain sample %s (want _bucket/_sum/_count)", family, name)
		}
	}
}

// family resolves a sample name to its metadata family and, for
// histogram/summary children, the suffix role ("bucket", "sum", "count").
func (l *linter) family(name string, labels []label) (string, string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if t := l.types[base]; t == "histogram" || t == "summary" {
			return base, suf[1:]
		}
	}
	return name, ""
}

func (l *linter) finish() {
	for family, bySig := range l.hists {
		for sig, agg := range bySig {
			where := family
			if sig != "" {
				where = family + "{" + sig + "}"
			}
			sort.Slice(agg.buckets, func(i, j int) bool { return agg.buckets[i].le < agg.buckets[j].le })
			if len(agg.buckets) == 0 || !math.IsInf(agg.buckets[len(agg.buckets)-1].le, 1) {
				l.issuef(agg.line, "histogram %s lacks a +Inf bucket", where)
			}
			for i := 1; i < len(agg.buckets); i++ {
				if agg.buckets[i].v < agg.buckets[i-1].v {
					l.issuef(agg.line, "histogram %s buckets not cumulative: le=%g count %g < le=%g count %g",
						where, agg.buckets[i].le, agg.buckets[i].v, agg.buckets[i-1].le, agg.buckets[i-1].v)
					break
				}
			}
			if !agg.hasSum {
				l.issuef(agg.line, "histogram %s lacks _sum", where)
			}
			if !agg.hasCount {
				l.issuef(agg.line, "histogram %s lacks _count", where)
			} else if n := len(agg.buckets); n > 0 && math.IsInf(agg.buckets[n-1].le, 1) && agg.buckets[n-1].v != agg.count {
				l.issuef(agg.line, "histogram %s _count %g != +Inf bucket %g", where, agg.count, agg.buckets[n-1].v)
			}
		}
	}
	sort.Strings(l.issues)
}

type label struct{ name, value string }

// parseSample parses `name{labels} value [timestamp]`.
func (l *linter) parseSample(n int, s string) (string, []label, float64, bool) {
	i := 0
	for i < len(s) && isNameChar(s[i], i == 0) {
		i++
	}
	if i == 0 {
		l.issuef(n, "sample does not start with a metric name: %q", s)
		return "", nil, 0, false
	}
	name := s[:i]
	var labels []label
	if i < len(s) && s[i] == '{' {
		var ok bool
		labels, i, ok = l.parseLabels(n, s, i+1)
		if !ok {
			return "", nil, 0, false
		}
	}
	rest := strings.TrimSpace(s[i:])
	if rest == "" {
		l.issuef(n, "sample %s has no value", name)
		return "", nil, 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) > 2 {
		l.issuef(n, "sample %s has trailing garbage: %q", name, rest)
		return "", nil, 0, false
	}
	value, err := parseFloat(fields[0])
	if err != nil {
		l.issuef(n, "sample %s has unparseable value %q", name, fields[0])
		return "", nil, 0, false
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			l.issuef(n, "sample %s has unparseable timestamp %q", name, fields[1])
			return "", nil, 0, false
		}
	}
	return name, labels, value, true
}

// parseLabels parses the label pairs starting just after '{'; returns the
// index just past '}'.
func (l *linter) parseLabels(n int, s string, i int) ([]label, int, bool) {
	var labels []label
	for {
		if i >= len(s) {
			l.issuef(n, "unterminated label set: %q", s)
			return nil, i, false
		}
		if s[i] == '}' {
			return labels, i + 1, true
		}
		start := i
		for i < len(s) && isLabelChar(s[i], i == start) {
			i++
		}
		if i == start || i >= len(s) || s[i] != '=' {
			l.issuef(n, "malformed label name in %q", s)
			return nil, i, false
		}
		lname := s[start:i]
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			l.issuef(n, "label %s value not quoted in %q", lname, s)
			return nil, i, false
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				l.issuef(n, "unterminated label value in %q", s)
				return nil, i, false
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(s) {
					l.issuef(n, "dangling escape in %q", s)
					return nil, i, false
				}
				switch s[i] {
				case '\\', '"':
					val.WriteByte(s[i])
				case 'n':
					val.WriteByte('\n')
				default:
					l.issuef(n, "invalid escape \\%c in %q", s[i], s)
					return nil, i, false
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, label{name: lname, value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// parseFloat accepts Prometheus number syntax including +Inf/-Inf/NaN.
func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func canonicalLabels(labels []label) string {
	parts := make([]string, len(labels))
	for i, lb := range labels {
		parts[i] = lb.name + "=" + strconv.Quote(lb.value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func canonicalLabelsExcept(labels []label, skip string) string {
	parts := make([]string, 0, len(labels))
	for _, lb := range labels {
		if lb.name == skip {
			continue
		}
		parts = append(parts, lb.name+"="+strconv.Quote(lb.value))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func labelValue(labels []label, name string) (string, bool) {
	for _, lb := range labels {
		if lb.name == name {
			return lb.value, true
		}
	}
	return "", false
}
