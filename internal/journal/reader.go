package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// maxSnapshotPayload bounds a snapshot file. A shard checkpoint holds what
// is queued, a few KB; the cap only keeps a corrupt length field from
// making the reader allocate wildly.
const maxSnapshotPayload = 256 << 20

// readFrame reads one frame from br into buf (grown as needed) and returns
// its checked payload. ok is false at EOF, a partial frame, a length over
// limit or a CRC mismatch — the signatures of a write a crash tore.
func readFrame(br *bufio.Reader, buf []byte, limit int) (payload []byte, ok bool) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return buf, false
	}
	n, crc := int(binary.LittleEndian.Uint32(hdr)), binary.LittleEndian.Uint32(hdr[4:])
	if n > limit {
		return buf, false
	}
	_, _ = br.Discard(frameHeader) // just peeked: cannot fail
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, false
	}
	return buf, crc32.Checksum(buf, crcTable) == crc
}

// scanFrames is the one loop over a segment's frames: it decodes every
// record of r's longest valid prefix, hands it to fn (when non-nil), and
// returns the prefix's byte length and record count — where the writer
// truncates a torn tail and resumes. The scan ends silently where readFrame
// stops; a payload that passes its checksum and does not decode is no torn
// write — the format itself is off (foreign file, incompatible version) —
// and is an error, as is one from fn.
func scanFrames(name string, r io.Reader, fn func(*Record) error) (offset int64, records int, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var payload []byte
	for {
		var ok bool
		if payload, ok = readFrame(br, payload, maxPayload); !ok {
			return offset, records, nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return offset, records, fmt.Errorf("journal: %s: record %d: %w", name, records, err)
		}
		if fn != nil {
			if err := fn(&rec); err != nil {
				return offset, records, err
			}
		}
		offset += frameHeader + int64(len(payload))
		records++
	}
}

// ScanSegment streams every valid record of one segment file through fn,
// stopping silently at a torn tail. fn errors abort the scan.
func ScanSegment(path string, fn func(*Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, err = scanFrames(path, f, fn)
	return err
}

// ReadSnapshotFile reads and CRC-verifies one snapshot payload.
func ReadSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// No frame of the file is longer than the file.
	payload, ok := readFrame(bufio.NewReader(bytes.NewReader(data)), nil, min(len(data), maxSnapshotPayload))
	if !ok {
		return nil, fmt.Errorf("journal: %s: snapshot frame truncated or corrupt (%d bytes)", path, len(data))
	}
	return payload, nil
}

// Recovery describes how to rebuild a shard's state from its log: the
// snapshot to start from (see Recover; nil payload when replaying from
// scratch) and the ordered tail segments to replay after it.
type Recovery struct {
	// SnapshotSeg is the snapshot's segment index, -1 without one.
	SnapshotSeg int
	// Snapshot is the verified snapshot payload (nil without one).
	Snapshot []byte
	// TailSegments are the segment indexes to replay, ascending.
	TailSegments []int
}

// Replay streams the tail segments' records through fn in order.
func (r *Recovery) Replay(dir string, fn func(*Record) error) error {
	for _, seg := range r.TailSegments {
		if err := ScanSegment(SegmentPath(dir, seg), fn); err != nil {
			return err
		}
	}
	return nil
}

// Recover plans a shard's recovery: it bases the walk on the newest
// snapshot but one whose payload verifies (genesis when fewer than two do;
// a torn snapshot just means replaying a longer tail) and lists the
// segments after it. The tail therefore always spans at least one whole
// segment: the newest snapshot is reached by replay and checked against it
// instead of trusted, and what the caller rebuilds from the tail alone — the
// service's window of acknowledged decision IDs — is never empty because
// the last commit happened to land on a checkpoint. An absent or empty
// directory recovers to the empty plan.
func Recover(dir string) (*Recovery, error) {
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	snaps, err := Snapshots(dir)
	if err != nil {
		return nil, err
	}
	r := &Recovery{SnapshotSeg: -1}
	for i, readable := len(snaps)-1, 0; i >= 0; i-- {
		payload, err := ReadSnapshotFile(SnapshotPath(dir, snaps[i]))
		if err != nil {
			continue // fall back to the previous snapshot
		}
		if readable++; readable == 2 {
			r.SnapshotSeg, r.Snapshot = snaps[i], payload
			break
		}
	}
	for _, s := range segs {
		if s > r.SnapshotSeg {
			r.TailSegments = append(r.TailSegments, s)
		}
	}
	return r, nil
}

// ReplayAll streams every record of every segment in dir through fn, from
// segment 0 — how hcreplay -decision finds and replays up to one decision.
func ReplayAll(dir string, fn func(*Record) error) error {
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := ScanSegment(SegmentPath(dir, seg), fn); err != nil {
			return err
		}
	}
	return nil
}
