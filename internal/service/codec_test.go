package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hpcclab/taskdrop/internal/pmf"
)

// uEsc is a backslash and a u: the start of a JSON \uXXXX escape, spelled
// so that no Go escape of the same shape appears in this file.
const uEsc = `\` + "u"

// trickyStrings are labels json.Marshal escapes or rewrites: quotes and
// backslashes, the HTML-unsafe bytes, the JavaScript line separators,
// non-ASCII text, invalid UTF-8 and control bytes — plus the empty label,
// which omitempty drops.
var trickyStrings = []string{
	"",
	`q"uote`,
	`back\slash`,
	"<a&b>",
	"line" + string(rune(0x2028)) + "para" + string(rune(0x2029)),
	"naïve-日本-🙂",
	"bad\xffutf8\xc3",
	"ctl\x00\x01\x1f\b\f\n\r\t\x7f",
	"plain-7",
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCodecGoldenFixtures holds the codec to the decide fixtures of
// TestWireGoldenFixtures: it writes exactly those bytes and reads them back
// into the values they were made from.
func TestCodecGoldenFixtures(t *testing.T) {
	req := &DecideRequest{DecisionID: "r1a-42", Tasks: []TaskSpec{
		{ID: "t7", Type: 2, Arrival: 120, Deadline: 890, ExecByType: []pmf.Tick{30, 70}},
		{Type: 0, Arrival: 121, Deadline: 400},
	}}
	const reqGolden = `{"decision_id":"r1a-42","tasks":[` +
		`{"id":"t7","type":2,"arrival":120,"deadline":890,"exec_by_type":[30,70]},` +
		`{"type":0,"arrival":121,"deadline":400}]}`
	if got := appendDecideRequest(nil, req.DecisionID, req.Tasks, nil); string(got) != reqGolden {
		t.Errorf("request:\n got: %s\nwant: %s", got, reqGolden)
	}
	var back DecideRequest
	if d := (decoder{b: []byte(reqGolden)}); !d.decideRequest(&back) || !reflect.DeepEqual(&back, req) {
		t.Errorf("request fixture does not decode back on the fast path: %+v", back)
	}

	decisions := []Decision{
		{ID: "t7", Seq: 3, Action: ActionMap, Shard: 1, Machine: 5, MachineName: "fast#1"},
		{ID: "t8", Seq: 0, Action: ActionDrop, Shard: 0, Backend: 1, Machine: -1},
	}
	goldens := []string{
		`{"id":"t7","seq":3,"action":"map","shard":1,"machine":5,"machine_name":"fast#1"}`,
		`{"id":"t8","seq":0,"action":"drop","shard":0,"backend":1,"machine":-1}`,
	}
	for i := range decisions {
		if got := appendDecision(nil, &decisions[i]); string(got) != goldens[i] {
			t.Errorf("decision %d:\n got: %s\nwant: %s", i, got, goldens[i])
		}
		var back Decision
		if d := (decoder{b: []byte(goldens[i])}); !d.decision(&back) || back != decisions[i] {
			t.Errorf("decision fixture %d does not decode back on the fast path: %+v", i, back)
		}
	}
	resp := &DecideResponse{Now: 512, Decisions: decisions}
	respGolden := `{"now":512,"decisions":[` + strings.Join(goldens, ",") + `]}`
	if got := appendDecideResponse(nil, resp); string(got) != respGolden {
		t.Errorf("response:\n got: %s\nwant: %s", got, respGolden)
	}
	var now pmf.Tick
	got := make([]Decision, 2)
	if n, ok := (&decoder{b: []byte(respGolden)}).decideResponse(&now, func(j int) *Decision { return &got[j] }); !ok || n != 2 || now != 512 || !reflect.DeepEqual(got, decisions) {
		t.Errorf("response fixture does not decode back on the fast path: now %d, %d decisions %+v", now, n, got)
	}
}

// TestCodecMatchesMarshal encodes every 16-task window of a 2000-task video
// trace — labels drawn from trickyStrings among the plain ones — as a
// request, as a router's sub-request of every other task, and as a response,
// and requires json.Marshal's bytes each time; then requires the codec to
// read those bytes as encoding/json does.
func TestCodecMatchesMarshal(t *testing.T) {
	tr := testTrace(t, 2000, 5)
	specs := make([]TaskSpec, len(tr.Tasks))
	decisions := make([]Decision, len(tr.Tasks))
	actions := []Action{ActionMap, ActionDefer, ActionDrop}
	for k, task := range tr.Tasks {
		id := fmt.Sprintf("t%d", task.ID)
		if k%3 == 0 {
			id = trickyStrings[k/3%len(trickyStrings)]
		}
		specs[k] = TaskSpec{ID: id, Type: int(task.Type), Arrival: task.Arrival, Deadline: task.Deadline, ExecByType: task.ExecByType}
		if k%5 == 0 {
			specs[k].ExecByType = nil
		}
		decisions[k] = Decision{
			ID: id, Seq: k, Action: actions[k%3], Shard: k % 4, Backend: k % 2 * 3,
			Machine: k%9 - 1, MachineName: trickyStrings[(k+1)%len(trickyStrings)],
		}
	}
	for i := range decisions {
		if got, want := appendDecision(nil, &decisions[i]), marshal(t, &decisions[i]); !bytes.Equal(got, want) {
			t.Fatalf("decision %d:\n got: %s\nwant: %s", i, got, want)
		}
	}
	for lo := 0; lo+16 <= len(specs); lo++ {
		id := trickyStrings[lo%len(trickyStrings)]
		req := DecideRequest{DecisionID: id, Tasks: specs[lo : lo+16]}
		want := marshal(t, &req)
		if got := appendDecideRequest(nil, id, req.Tasks, nil); !bytes.Equal(got, want) {
			t.Fatalf("window %d request:\n got: %s\nwant: %s", lo, got, want)
		}
		checkDecodeRequest(t, want)

		idxs := make([]int, 0, 8)
		sub := DecideRequest{DecisionID: id}
		for i := lo; i < lo+16; i += 2 {
			idxs = append(idxs, i)
			sub.Tasks = append(sub.Tasks, specs[i])
		}
		if got, want := appendDecideRequest(nil, id, specs, idxs), marshal(t, &sub); !bytes.Equal(got, want) {
			t.Fatalf("window %d sub-request:\n got: %s\nwant: %s", lo, got, want)
		}

		resp := DecideResponse{Now: pmf.Tick(lo * 7), Decisions: decisions[lo : lo+16]}
		want = marshal(t, &resp)
		if got := appendDecideResponse(nil, &resp); !bytes.Equal(got, want) {
			t.Fatalf("window %d response:\n got: %s\nwant: %s", lo, got, want)
		}
		checkDecodeResponse(t, want)
	}
	for _, v := range []any{
		&DecideRequest{}, &DecideRequest{Tasks: []TaskSpec{}},
		&DecideResponse{}, &DecideResponse{Decisions: []Decision{}},
		&Decision{},
	} {
		var got []byte
		switch v := v.(type) {
		case *DecideRequest:
			got = appendDecideRequest(nil, v.DecisionID, v.Tasks, nil)
		case *DecideResponse:
			got = appendDecideResponse(nil, v)
		case *Decision:
			got = appendDecision(nil, v)
		}
		if want := marshal(t, v); !bytes.Equal(got, want) {
			t.Errorf("%#v:\n got: %s\nwant: %s", v, got, want)
		}
	}
}

// TestCodecFastPath pins which bodies the decoders read themselves: the
// canonical form — whatever the key order and whitespace — and nothing
// encoding/json would read differently.
func TestCodecFastPath(t *testing.T) {
	canonical := []string{
		`{"decision_id":"r1","tasks":[{"id":"t7","type":2,"arrival":120,"deadline":890,"exec_by_type":[30,70]},{"type":0,"arrival":121,"deadline":400}]}`,
		`{"tasks":[{"exec_by_type":[30,70],"deadline":890,"arrival":120,"type":2,"id":"t7"}],"decision_id":"r1"}`,
		" \n\t{ \"tasks\" :\r [ { \"type\" : -0 , \"arrival\" : 5 , \"deadline\" : 9 , \"exec_by_type\" : [ 1 , 2 ] } ] } \n",
		`{"tasks":[{"id":"naïve-日本","type":1,"arrival":5,"deadline":9,"exec_by_type":[]}]}`,
		`{"tasks":[{"type":1,"arrival":5,"deadline":9}]} trailing bytes are never read`,
		`{"tasks":[]}`,
		`{}`,
	}
	for _, body := range canonical {
		var req DecideRequest
		if !(&decoder{b: []byte(body)}).decideRequest(&req) {
			t.Errorf("canonical body left to encoding/json: %s", body)
		}
		checkDecodeRequest(t, []byte(body))
	}
	for _, body := range decideRequestSeeds {
		var req DecideRequest
		d := decoder{b: []byte(body)}
		if !d.decideRequest(&req) {
			continue
		}
		var want DecideRequest
		if err := decodeStrict(strings.NewReader(body), &want); err != nil || !reflect.DeepEqual(req, want) {
			t.Errorf("fast path read %q as %+v; encoding/json: %+v, %v", body, req, want, err)
		}
	}
}

// checkDecodeRequest requires decodeDecideRequest to agree with
// encoding/json's reading of data (decodeStrict): the same value, and the
// same error text or none.
func checkDecodeRequest(t *testing.T, data []byte) {
	t.Helper()
	var got, want DecideRequest
	gerr := decodeDecideRequest(data, &got)
	werr := decodeStrict(bytes.NewReader(data), &want)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%q: error %q, encoding/json %q", data, errText(gerr), errText(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got: %#v\nwant: %#v", data, got, want)
	}
}

// checkDecodeResponse requires decodeDecideResponse to agree with
// encoding/json's reading of data as a client reads it (first value,
// unknown fields ignored): the same clock and decisions, and the same
// error text or none.
func checkDecodeResponse(t *testing.T, data []byte) {
	t.Helper()
	var now pmf.Tick
	var slots []Decision
	n, gerr := decodeDecideResponse(data, &now, func(j int) *Decision {
		for len(slots) <= j {
			slots = append(slots, Decision{Action: "stale"})
		}
		return &slots[j]
	})
	var want DecideResponse
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%q: error %q, encoding/json %q", data, errText(gerr), errText(werr))
	}
	if gerr != nil {
		return
	}
	if now != want.Now || n != len(want.Decisions) || (n > 0 && !reflect.DeepEqual(slots[:n], want.Decisions)) {
		t.Fatalf("%q:\n got: now %d, %d decisions %#v\nwant: %#v", data, now, n, slots[:min(n, len(slots))], want)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// decideRequestSeeds are the fuzz corpus of FuzzDecodeDecideRequest: the
// golden request and the forms only encoding/json reads — a key escaped or
// in another case or folding ("taſks"), duplicate keys, floats, exponents,
// null, unknown fields, escaped strings, numbers too wide — plus trailing
// data, whitespace everywhere and bodies that are not a request at all.
var decideRequestSeeds = []string{
	`{"decision_id":"r1a-42","tasks":[{"id":"t7","type":2,"arrival":120,"deadline":890,"exec_by_type":[30,70]},{"type":0,"arrival":121,"deadline":400}]}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9}]}`,
	`{"tasks":[{"TYPE":1,"arrival":5,"deadline":9}]}`,
	`{"taſks":[{"type":1,"arrival":5,"deadline":9}]}`,
	`{"Decision_ID":"x","tasks":[]}`,
	`{"` + uEsc + `0074asks":[{"type":1,"arrival":5,"deadline":9}]}`,
	`{"tasks":[{"type":1,"type":2,"arrival":5,"deadline":9}]}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9,"id":"a"}],"tasks":[{"arrival":3}]}`,
	`{"tasks":[{"type":1.0,"arrival":5,"deadline":9}]}`,
	`{"tasks":[{"type":1,"arrival":1e2,"deadline":9}]}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9,"exec_by_type":[1.5]}]}`,
	`{"tasks":null}`,
	`{"decision_id":null,"tasks":[{"id":null,"type":null,"arrival":5,"deadline":9,"exec_by_type":null}]}`,
	`{"tasks":[],"priority":3}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9,"weight":2}]}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9}]} trailing garbage`,
	`{"tasks":[]}{"tasks":[{"type":1}]}`,
	" \n\t{ \"decision_id\" : \"d\" ,\r\n \"tasks\" :\r [ { \"id\":\"x\" , \"type\" : 1 , \"arrival\" : 5 , \"deadline\" : 9 , \"exec_by_type\" : [ 1 , 2 ] } ] } \n",
	`{"decision_id":"a\"b\\c\/d` + uEsc + `00e9\n","tasks":[{"id":"` + uEsc + `2028","type":1,"arrival":5,"deadline":9}]}`,
	"{\"tasks\":[{\"id\":\"raw\x01ctl\",\"type\":1,\"arrival\":5,\"deadline\":9}]}",
	"{\"tasks\":[{\"id\":\"bad\xffutf8\",\"type\":1,\"arrival\":5,\"deadline\":9}]}",
	`{"tasks":[{"id":"naïve","type":-0,"arrival":-7,"deadline":9}]}`,
	`{"tasks":[{"type":007,"arrival":5,"deadline":9}]}`,
	`{"tasks":[{"type":1,"arrival":999999999999999999,"deadline":9223372036854775807}]}`,
	`{"tasks":[{"type":1,"arrival":99999999999999999999,"deadline":9}]}`,
	`{"tasks":[{"type":"1","arrival":5,"deadline":9}]}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9}`,
	`{"tasks":[{"type":1,"arrival":5,"deadline":9},]}`,
	"\xef\xbb\xbf{\"tasks\":[]}",
	`[]`,
	`"tasks"`,
	`{`,
	``,
	` `,
}

// decideResponseSeeds are the fuzz corpus of FuzzDecodeDecideResponse,
// built the same way around the golden decisions.
var decideResponseSeeds = []string{
	`{"now":512,"decisions":[{"id":"t7","seq":3,"action":"map","shard":1,"machine":5,"machine_name":"fast#1"},{"id":"t8","seq":0,"action":"drop","shard":0,"backend":1,"machine":-1}]}`,
	`{"now":0,"decisions":null}`,
	`{"now":0,"decisions":[]}`,
	`{"decisions":[{"seq":1,"action":"defer","shard":0,"machine":-1}],"now":9}`,
	`{"now":1,"decisions":[{"SEQ":1,"action":"map","shard":0,"machine":2}]}`,
	`{"now":1,"decisionſ":[]}`,
	`{"now":1,"now":2,"decisions":[]}`,
	`{"now":1,"decisions":[{"seq":1,"seq":2,"action":"map","shard":0,"machine":2}]}`,
	`{"now":1,"decisions":[{"seq":1,"action":"map","shard":0,"machine":2}],"decisions":[{"seq":5}]}`,
	`{"now":1.0,"decisions":[]}`,
	`{"now":1e2,"decisions":[]}`,
	`{"now":null,"decisions":[{"id":null,"seq":null,"action":null,"shard":0,"machine":2}]}`,
	`{"now":1,"decisions":[{"seq":1,"action":"map","shard":0,"machine":2,"extra":[1,{"x":2}]}],"trace":"ignored"}`,
	`{"now":1,"decisions":[{"seq":1,"action":"weird","shard":0,"machine":2}]} trailing`,
	" {\n \"now\" : 3 ,\t\"decisions\" : [ {\r\"id\" : \"a\" , \"seq\" : 1 , \"action\" : \"map\" , \"shard\" : 0 , \"backend\" : 2 , \"machine\" : 2 , \"machine_name\" : \"m\" } ] }",
	`{"now":1,"decisions":[{"id":"a\"b` + uEsc + `fffd","seq":1,"action":"map","shard":0,"machine":2}]}`,
	"{\"now\":1,\"decisions\":[{\"machine_name\":\"bad\xff\",\"seq\":1,\"action\":\"map\",\"shard\":0,\"machine\":2}]}",
	`{"now":1,"decisions":[{"seq":1,"action":"map","shard":0,"machine":2}`,
	`{"now":1,"decisions":{}}`,
	`[]`,
	``,
}

// FuzzDecodeDecideRequest is differential: the server's decoder and
// encoding/json (first value, unknown fields refused) must agree on the
// decoded value and on the error text, or its absence.
func FuzzDecodeDecideRequest(f *testing.F) {
	for _, s := range decideRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeRequest(t, data) })
}

// FuzzDecodeDecideResponse is differential: the client's decoder and
// encoding/json (first value, unknown fields ignored) must agree on the
// clock, the decisions and the error text, or its absence.
func FuzzDecodeDecideResponse(f *testing.F) {
	for _, s := range decideResponseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecodeResponse(t, data) })
}
