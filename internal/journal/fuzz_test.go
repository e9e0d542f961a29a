package journal

import (
	"reflect"
	"testing"
)

// FuzzDecodeRecord hammers the payload decoder with arbitrary bytes: it
// must never panic, and any payload it accepts must re-encode to an
// identical payload (the format is canonical). The refused payloads seed
// it next to the encodings of valid records.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords(32, 9) {
		buf := AppendRecord(nil, &r)
		f.Add(buf[frameHeader:])
	}
	for _, payload := range refusedPayloads() {
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{recordVersion})
	f.Add([]byte{recordVersion, byte(KindArrive)})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		re := AppendRecord(nil, &r)
		if !reflect.DeepEqual(re[frameHeader:], payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, re[frameHeader:])
		}
	})
}
