package journal

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord hammers the commit frame decoder with arbitrary frame
// payloads: it must never panic, and any payload it accepts must re-encode
// to an identical payload (the format is canonical, frame and records
// alike). The refused payloads seed it next to frames of valid records.
func FuzzDecodeRecord(f *testing.F) {
	recs := sampleRecords(32, 9)
	for i := range recs {
		f.Add(frame(recs[i])[frameHeader:])
	}
	f.Add(frame(recs[:5]...)[frameHeader:])
	for _, payload := range refusedPayloads() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var recs []Record
		if _, err := decodeFrame(payload, new(Record), func(r *Record) error { recs = append(recs, r.Clone()); return nil }); err != nil {
			return
		}
		if re := frame(recs...)[frameHeader:]; !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, re)
		}
	})
}
