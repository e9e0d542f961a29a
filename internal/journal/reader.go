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
		buf = make([]byte, n, max(n, 2*cap(buf)))
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, false
	}
	return buf, crc32.Checksum(buf, crcTable) == crc
}

// scanFrames is the one loop over a segment's commit frames: it decodes
// every record of f's longest prefix of whole frames into one Record,
// hands it to fn (decodeFrame), and returns the prefix's byte length —
// where the writer truncates a torn tail and resumes. The scan ends
// silently where readFrame stops, so a commit a crash tore is dropped
// whole; a frame longer than the bytes left in the file is such a tear, so
// no commit is too large to read and no corrupt length makes the reader
// allocate past the file. A payload that passes its checksum and does not
// decode is no torn write — the format itself is off (foreign file,
// incompatible version) — and is an error, as is one from fn; both name
// the file and the commit.
func scanFrames(name string, f *os.File, fn func(*Record) error) (offset int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	br := bufio.NewReaderSize(f, 64<<10)
	payload := make([]byte, 0, 4<<10) // a commit of a few dozen tasks fits
	var rec Record
	for {
		var ok bool
		if payload, ok = readFrame(br, payload, int(fi.Size()-offset)-frameHeader); !ok {
			return offset, nil
		}
		if _, err := decodeFrame(payload, &rec, fn); err != nil {
			return offset, fmt.Errorf("journal: %s: commit at byte %d: %w", name, offset, err)
		}
		offset += frameHeader + int64(len(payload))
	}
}

// ScanSegment streams every record of one segment file's whole commits
// through fn, stopping silently at a torn tail. fn errors abort the scan.
// The *Record fn is handed is reused for the next record: fn copies what
// it keeps (Record.Clone).
func ScanSegment(path string, fn func(*Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanFrames(path, f, fn)
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

// Replay streams the tail segments' records through fn in order, under
// ScanSegment's contract: the *Record fn is handed is reused.
func (r *Recovery) Replay(dir string, fn func(*Record) error) error {
	for _, seg := range r.TailSegments {
		if err := ScanSegment(SegmentPath(dir, seg), fn); err != nil {
			return err
		}
	}
	return nil
}

// Recover plans a shard's crash recovery: it bases the walk on the newest
// readable snapshot older than the newest snapshot on disk (genesis when
// there is none; a torn or corrupt snapshot just means a longer tail) and
// lists the segments after it. The tail therefore spans at least one whole
// segment: the newest snapshot is reached by replay and checked against it
// instead of trusted, and what the caller rebuilds from the tail alone —
// the service's window of acknowledged decision IDs — is never empty
// because the last commit happened to land on a checkpoint. Only when no
// older start reads — a trimmed log whose older retained snapshot is
// corrupt — does the walk start on the newest snapshot, taken as given,
// with the segments after it as the whole tail. This is the history the
// writer's trim keeps. An absent or empty directory recovers to the empty
// plan.
func Recover(dir string) (*Recovery, error) { return plan(dir, false) }

// Oldest plans the longest walk a (possibly trimmed) log supports — how
// hcreplay verifies and audits: from genesis when segment 0 is on disk,
// otherwise from the oldest readable snapshot the segments after it
// continue (on a trimmed log, the one just before the first segment), which
// the walk takes as given (it is CRC-checked, not re-derived).
func Oldest(dir string) (*Recovery, error) { return plan(dir, true) }

// plan is the one planner of a walk's start (Recover, Oldest): the first
// candidate base, in the planner's order of preference, that reads and that
// the segments on disk follow (see follow). Genesis is always a candidate,
// so when none works the error is genesis's, naming the first segment of
// history nothing on disk stands for — never a walk that skips it.
func plan(dir string, oldest bool) (*Recovery, error) {
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	snaps, err := Snapshots(dir)
	if err != nil {
		return nil, err
	}
	newest := -1
	if n := len(snaps); n > 0 {
		newest = snaps[n-1]
	}
	// Candidate bases, -1 standing for genesis: Oldest from the earliest
	// on; Recover from the newest snapshot but one back to genesis, then
	// the newest itself.
	var bases []int
	if oldest {
		bases = append([]int{-1}, snaps...)
	} else {
		for i := len(snaps) - 2; i >= 0; i-- {
			bases = append(bases, snaps[i])
		}
		bases = append(bases, -1)
		if newest >= 0 {
			bases = append(bases, newest)
		}
	}
	var refusal error
	for _, base := range bases {
		tail, err := follow(dir, segs, base, newest)
		if base < 0 {
			refusal = err
		}
		if err != nil {
			continue
		}
		r := &Recovery{SnapshotSeg: base, TailSegments: tail}
		if base >= 0 {
			if r.Snapshot, err = ReadSnapshotFile(SnapshotPath(dir, base)); err != nil {
				continue
			}
		}
		return r, nil
	}
	return nil, refusal
}

// follow lists the segments after base (-1: genesis), the tail of a walk
// from it. They must continue base segment by segment and reach the newest
// snapshot on disk, so the walk neither steps over missing history nor
// stops short of state a checkpoint holds.
func follow(dir string, segs []int, base, newest int) ([]int, error) {
	var tail []int
	next := base + 1
	for _, s := range segs {
		if s <= base {
			continue
		}
		if s != next {
			return nil, fmt.Errorf("journal: %s: segment %d is missing: the log resumes at segment %d with no readable checkpoint in between", dir, next, s)
		}
		tail = append(tail, s)
		next++
	}
	if next <= newest {
		return nil, fmt.Errorf("journal: %s: segment %d is missing: the log ends before checkpoint %d", dir, next, newest)
	}
	return tail, nil
}
