package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// maxSnapshotPayload bounds a snapshot file; engine snapshots grow with
// the served task history (~100 B/task serialized), so the cap is
// generous.
const maxSnapshotPayload = 256 << 20

// scanValidPrefix reads framed records from the start of f and returns
// the byte offset and record count of the longest valid prefix: the scan
// stops at EOF, a partial frame, an over-limit length, or a CRC mismatch
// — the torn-tail signatures of a crash mid-write. Only I/O failures
// return an error.
func scanValidPrefix(f *os.File) (offset int64, records int, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	var hdr [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return offset, records, nil // EOF or partial header: prefix ends
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxPayload {
			return offset, records, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return offset, records, nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return offset, records, nil
		}
		if _, err := DecodeRecord(payload); err != nil {
			// Structurally invalid but checksummed: not a torn write — the
			// format itself is off (foreign file, incompatible version).
			return offset, records, fmt.Errorf("journal: %s: record %d: %w", f.Name(), records, err)
		}
		offset += frameHeader + int64(n)
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
	br := bufio.NewReaderSize(f, 64<<10)
	var hdr [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return nil
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxPayload {
			return nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("journal: %s: %w", path, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
}

// ReadSnapshotFile reads and CRC-verifies one snapshot payload.
func ReadSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < frameHeader {
		return nil, fmt.Errorf("journal: %s: snapshot truncated (%d bytes)", path, len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	crc := binary.LittleEndian.Uint32(data[4:])
	if int(n) > maxSnapshotPayload || frameHeader+int(n) > len(data) {
		return nil, fmt.Errorf("journal: %s: snapshot length %d exceeds file", path, n)
	}
	payload := data[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("journal: %s: snapshot CRC mismatch", path)
	}
	return payload, nil
}

// Recovery describes how to rebuild a shard's state from its log: the
// newest snapshot that decodes cleanly (nil payload when replaying from
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

// Recover plans a shard's recovery: it picks the newest snapshot whose
// payload verifies (falling back to older ones — a torn snapshot just
// means replaying a longer tail) and lists the segments after it. An
// absent or empty directory recovers to the empty plan.
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
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, err := ReadSnapshotFile(SnapshotPath(dir, snaps[i]))
		if err != nil {
			continue // fall back to the previous snapshot
		}
		r.SnapshotSeg = snaps[i]
		r.Snapshot = payload
		break
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
