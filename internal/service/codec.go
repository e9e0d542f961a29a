package service

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// The decide codec: the bytes of the decide exchange (DecideRequest,
// DecideResponse, Decision) without reflection, in both tiers.
//
// The encoders append exactly what json.Marshal writes for the same value
// — field order, omitempty, HTML-safe string escaping — so the wire does
// not change. The decoders read the canonical form — the tagged keys, each
// at most once, in any order, with any whitespace; strings without escapes;
// integers without fraction or exponent — and hand anything else to
// encoding/json, which therefore still defines what a body may say, what it
// decodes to and the text of every error.

// appendDecideRequest appends the JSON of the decide request that carries,
// under decision ID id, the tasks idxs selects from tasks (nil: all of
// them) — json.Marshal's bytes for that DecideRequest.
func appendDecideRequest(b []byte, id string, tasks []TaskSpec, idxs []int) []byte {
	b = append(b, '{')
	if id != "" {
		b = append(b, `"decision_id":`...)
		b = appendString(b, id)
		b = append(b, ',')
	}
	b = append(b, `"tasks":`...)
	if idxs == nil && tasks == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	first := true
	eachIdx(idxs, len(tasks), func(i int) {
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendTaskSpec(b, &tasks[i])
	})
	return append(b, "]}"...)
}

func appendTaskSpec(b []byte, t *TaskSpec) []byte {
	b = append(b, '{')
	if t.ID != "" {
		b = append(b, `"id":`...)
		b = appendString(b, t.ID)
		b = append(b, ',')
	}
	b = append(b, `"type":`...)
	b = strconv.AppendInt(b, int64(t.Type), 10)
	b = append(b, `,"arrival":`...)
	b = strconv.AppendInt(b, int64(t.Arrival), 10)
	b = append(b, `,"deadline":`...)
	b = strconv.AppendInt(b, int64(t.Deadline), 10)
	if len(t.ExecByType) != 0 {
		b = append(b, `,"exec_by_type":[`...)
		for k, x := range t.ExecByType {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendDecideResponse appends json.Marshal's bytes for r.
func appendDecideResponse(b []byte, r *DecideResponse) []byte {
	b = append(b, `{"now":`...)
	b = strconv.AppendInt(b, int64(r.Now), 10)
	b = append(b, `,"decisions":`...)
	if r.Decisions == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for j := range r.Decisions {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendDecision(b, &r.Decisions[j])
	}
	return append(b, "]}"...)
}

// appendDecision appends json.Marshal's bytes for d.
func appendDecision(b []byte, d *Decision) []byte {
	b = append(b, '{')
	if d.ID != "" {
		b = append(b, `"id":`...)
		b = appendString(b, d.ID)
		b = append(b, ',')
	}
	b = append(b, `"seq":`...)
	b = strconv.AppendInt(b, int64(d.Seq), 10)
	b = append(b, `,"action":`...)
	b = appendString(b, string(d.Action))
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(d.Shard), 10)
	if d.Backend != 0 {
		b = append(b, `,"backend":`...)
		b = strconv.AppendInt(b, int64(d.Backend), 10)
	}
	b = append(b, `,"machine":`...)
	b = strconv.AppendInt(b, int64(d.Machine), 10)
	if d.MachineName != "" {
		b = append(b, `,"machine_name":`...)
		b = appendString(b, d.MachineName)
	}
	return append(b, '}')
}

// appendString appends s as json.Marshal writes a string: `"` and `\`
// backslash-escaped, control bytes as \b \f \n \r \t or \u00XX, `<`, `>`
// and `&` as \u00XX, the separators U+2028 and U+2029 escaped the same
// way, and each byte of invalid UTF-8 as an escaped U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeDecideRequest decodes a decide request body as the endpoint always
// has — the first JSON value, unknown fields refused (decodeStrict) — with
// the canonical form read without reflection, into the storage of
// req.Tasks: a server reuses one request per connection. Execution times
// reuse the storage of the slot they land in, as the engine keeps a copy
// (Controller.makeTask); labels are new strings, one per labelBatch tasks.
func decodeDecideRequest(data []byte, req *DecideRequest) error {
	tasks := req.Tasks[:0]
	*req = DecideRequest{}
	d := decoder{b: data}
	if d.decideRequest(req, tasks) {
		return nil
	}
	*req = DecideRequest{}
	return decodeStrict(bytes.NewReader(data), req)
}

// decodeStrict is encoding/json's reading of a decide request: the first
// value r holds, unknown fields refused.
func decodeStrict(r io.Reader, req *DecideRequest) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// decodeDecideResponse decodes a decide response body as the client always
// has — the first JSON value, unknown fields ignored — with the canonical
// form read without reflection: the clock into *now, decision j into the
// slot at(j) hands out. A decision's label is the one at(j) names when the
// bytes are equal, and its machine name names[machine] likewise; either is
// a new string otherwise. It returns how many decisions the body holds.
func decodeDecideResponse(data []byte, now *pmf.Tick, names []string, at func(j int) (*Decision, string)) (int, error) {
	d := decoder{b: data}
	if n, ok := d.decideResponse(now, names, at); ok {
		return n, nil
	}
	var resp DecideResponse
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
		return 0, err
	}
	*now = resp.Now
	for j := range resp.Decisions {
		x, _ := at(j)
		*x = resp.Decisions[j]
	}
	return len(resp.Decisions), nil
}

// decoder is a cursor over a JSON document for the canonical-form fast
// path. A method returning false has met something outside the canonical
// form; the caller then hands the whole document to encoding/json. Bytes
// after the first value are never looked at, as json.Decoder does not.
type decoder struct {
	b []byte
	i int
}

// decideRequest decodes into req, appending its tasks to tasks. The tasks'
// labels are substrings of one string per labelBatch of them (labels).
func (d *decoder) decideRequest(req *DecideRequest, tasks []TaskSpec) bool {
	var labs labels
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "decision_id":
			return d.str(&req.DecisionID)
		case "tasks":
			// A capacity hint only: the tasks of a canonical body, counted by
			// their one key every encoder writes.
			req.Tasks = slices.Grow(tasks, bytes.Count(d.b[d.i:], []byte(`"arrival"`)))
			if req.Tasks == nil {
				req.Tasks = []TaskSpec{} // encoding/json reads [] as empty, not nil
			}
			ok := d.array(func() bool {
				// The execution times the slot held are storage to reuse:
				// the engine keeps a copy (Controller.makeTask).
				var spare []pmf.Tick
				if k := len(req.Tasks); k < cap(req.Tasks) {
					spare = req.Tasks[:cap(req.Tasks)][k].ExecByType[:0]
				}
				req.Tasks = append(req.Tasks, TaskSpec{})
				var label []byte
				if !d.taskSpec(&req.Tasks[len(req.Tasks)-1], spare, &label) {
					return false
				}
				if len(label) > 0 {
					labs.add(req.Tasks, len(req.Tasks)-1, label)
				}
				return true
			})
			if ok {
				labs.flush(req.Tasks)
			}
			return ok
		}
		return false
	})
}

// taskSpec decodes into t, its execution times into spare's storage and
// its label into *label, aliasing the document.
func (d *decoder) taskSpec(t *TaskSpec, spare []pmf.Tick, label *[]byte) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			var ok bool
			*label, ok = d.text()
			return ok
		case "type":
			return d.int(&t.Type)
		case "arrival":
			return d.tick(&t.Arrival)
		case "deadline":
			return d.tick(&t.Deadline)
		case "exec_by_type":
			var buf [16]pmf.Tick
			xs := buf[:0]
			ok := d.array(func() bool {
				var x pmf.Tick
				ok := d.tick(&x)
				xs = append(xs, x)
				return ok
			})
			if spare == nil {
				spare = make([]pmf.Tick, 0, len(xs)) // not nil: encoding/json reads [] as empty
			}
			t.ExecByType = append(spare, xs...)
			return ok
		}
		return false
	})
}

// labelBatch is how many task labels share one string.
const labelBatch = 32

// labels are task labels a decoder read, aliasing the document, that it
// makes one string and hands out as substrings of it: a request's labels
// are then one allocation per labelBatch, not one each.
type labels struct {
	n  int
	at [labelBatch]struct {
		task  int
		label []byte
	}
}

// add holds label as the label of tasks[task].
func (l *labels) add(tasks []TaskSpec, task int, label []byte) {
	if l.n == labelBatch {
		l.flush(tasks)
	}
	l.at[l.n].task, l.at[l.n].label = task, label
	l.n++
}

// flush copies the labels held into one string and sets each task's ID to
// its part.
func (l *labels) flush(tasks []TaskSpec) {
	size := 0
	for _, a := range l.at[:l.n] {
		size += len(a.label)
	}
	var b strings.Builder
	b.Grow(size)
	for _, a := range l.at[:l.n] {
		b.Write(a.label)
	}
	all := b.String()
	for _, a := range l.at[:l.n] {
		tasks[a.task].ID, all = all[:len(a.label)], all[len(a.label):]
	}
	l.n = 0
}

func (d *decoder) decideResponse(now *pmf.Tick, names []string, at func(j int) (*Decision, string)) (n int, ok bool) {
	ok = d.object(func(key []byte) bool {
		switch string(key) {
		case "now":
			return d.tick(now)
		case "decisions":
			return d.array(func() bool {
				x, label := at(n)
				*x = Decision{}
				n++
				return d.decision(x, label, names)
			})
		}
		return false
	})
	return n, ok
}

// decision decodes into x, sharing label and names' strings (decodeDecideResponse).
func (d *decoder) decision(x *Decision, label string, names []string) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			s, ok := d.text()
			x.ID = known(s, label)
			return ok
		case "seq":
			return d.int(&x.Seq)
		case "action":
			s, ok := d.text()
			switch string(s) {
			case string(ActionMap):
				x.Action = ActionMap
			case string(ActionDefer):
				x.Action = ActionDefer
			case string(ActionDrop):
				x.Action = ActionDrop
			default:
				x.Action = Action(s)
			}
			return ok
		case "shard":
			return d.int(&x.Shard)
		case "backend":
			return d.int(&x.Backend)
		case "machine":
			return d.int(&x.Machine)
		case "machine_name":
			s, ok := d.text()
			name := ""
			if x.Machine >= 0 && x.Machine < len(names) {
				name = names[x.Machine]
			}
			x.MachineName = known(s, name)
			return ok
		}
		return false
	})
}

// known is s as a string: want itself when the bytes are equal, else a
// new string.
func known(s []byte, want string) string {
	if string(s) == want {
		return want
	}
	return string(s)
}

// maxMembers bounds the members of one canonical object (a Decision has
// the most, seven).
const maxMembers = 8

// object walks the object at the cursor, calling member with each key once
// its colon is consumed; member decodes the value, or returns false for a
// key it does not know. A key met twice is not canonical.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var keys [maxMembers][]byte
	for n := 0; ; n++ {
		key, ok := d.text()
		if !ok || n == maxMembers || !d.eat(':') {
			return false
		}
		for _, k := range keys[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		keys[n] = key
		if !member(key) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// array walks the array at the cursor, calling elem for each element.
func (d *decoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// eat consumes c after any whitespace.
func (d *decoder) eat(c byte) bool {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
			continue
		case c:
			d.i++
			return true
		}
		return false
	}
	return false
}

// text reads a string without escapes or control bytes, in valid UTF-8 —
// one encoding/json reads byte for byte — and returns its contents, which
// alias the document.
func (d *decoder) text() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *decoder) str(p *string) bool {
	s, ok := d.text()
	*p = string(s)
	return ok
}

// integer reads an integer literal of at most 18 digits — every one fits an
// int64 — with no leading zero, fraction or exponent.
func (d *decoder) integer() (int64, bool) {
	neg := d.eat('-')
	start := d.i
	var v int64
	for d.i < len(d.b) && isDigit(d.b[d.i]) {
		v = v*10 + int64(d.b[d.i]-'0')
		d.i++
	}
	digits := d.i - start
	if digits == 0 || digits > 18 || (digits > 1 && d.b[start] == '0') {
		return 0, false
	}
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (d *decoder) int(p *int) bool {
	v, ok := d.integer()
	*p = int(v)
	return ok && int64(*p) == v
}

func (d *decoder) tick(p *pmf.Tick) bool {
	v, ok := d.integer()
	*p = pmf.Tick(v)
	return ok
}
