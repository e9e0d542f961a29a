// Package journal implements the event-sourced decision log of the
// admission service: a per-shard append-only write-ahead log (WAL) of
// immutable records, sealed one CRC-checked frame per commit, with periodic
// state snapshots so recovery replays only the log tail.
//
// Every admission shard is a deterministic single-writer loop — decisions
// are a pure function of the fed task sequence — which is precisely the
// event-sourcing sweet spot: journaling the arrivals is enough to
// reconstruct the exact pre-crash engine by replay, and one digest per
// commit of the decisions and terminal task events they caused (Digest) is
// enough to audit it. The package defines the record vocabulary and its
// codec, but the Writer is generic: it frames, writes, fsyncs, checkpoints
// and trims whatever records and opaque snapshot payloads it is handed.
// Which records a commit holds, the digest it ends with and when a
// checkpoint is due are the caller's decisions (internal/service's shard
// commit), and so is what the payloads mean (internal/service encodes
// shard checkpoints, cmd/hcreplay re-derives past decisions).
//
// # On-disk layout
//
// A shard's log directory holds numbered WAL segments and snapshots:
//
//	seg-0000000000.wal      records appended before the first snapshot
//	snap-0000000000.snap    one framed snapshot payload: state after seg 0
//	seg-0000000001.wal      records appended after that snapshot
//	...
//
// Snapshot K captures the state after every record of segments <= K; the
// writer rotates to segment K+1 immediately after writing snapshot K.
// Recovery (Recover) restores the newest readable snapshot older than the
// newest one and replays the segments after it, so its tail always holds a
// whole segment and reaches the newest snapshot by replay; with a single
// snapshot it replays from segment 0, and when nothing older reads it
// starts on the newest snapshot itself. Snapshots are written to a temp
// file, fsynced and renamed, so a crash mid-snapshot leaves the previous
// one intact.
//
// # Retention
//
// Once snapshot K is renamed and segment K+1 open, the writer asks Recover
// for its base P — on a healthy log the checkpoint written before K — and
// deletes every segment <= P and every snapshot < P: what stays is exactly
// Recover's plan — snapshot P, snapshot K and the segments after P. A log
// therefore holds two snapshots and, between checkpoints, two segments,
// however long the shard has run. The oldest start a trimmed log supports
// (Oldest) is the snapshot just before its first segment, or the next one
// when that does not read; segment 0 on disk means genesis. A planned walk
// never steps over a missing segment: both planners refuse a tail that
// does not continue its base.
//
// # Commit framing
//
// The unit on disk is the commit — what one acknowledgement covers. Append
// adds a record to the open commit in memory; Commit seals it as one frame
// and writes it in one write. The service appends a digest record last
// when the commit's inputs derived anything:
//
//	u32 payload length | u32 CRC-32C of payload | payload
//	payload = version byte (frameVersion, now 5) | record | ... [| digest]
//	record  = uvarint length | kind byte | the kind's fields
//
// (the header little-endian). Checkpoint and Close seal the open commit
// first, so no frame spans two segments. A crash mid-write tears at most the
// last frame — a partial frame or a CRC mismatch — and a torn frame drops
// its whole commit: the reader surfaces the whole frames before it, and the
// writer truncates the tail before appending again. So a commit is on disk
// whole or not at all. A frame is bounded by the bytes left in its segment,
// not by a cap, so a commit of any size reads back.
//
// A record's fields are signed integers as zigzag varints, lengths, counts
// and trace span offsets as unsigned varints, actions, the span count and
// stage codes as single bytes, a digest as 8 bytes. Fields are independent
// (no deltas), and the reader accepts only the canonical encoding —
// shortest varints, every
// record exactly as long as its length says, at least one record a frame —
// so a frame it accepts re-encodes to the same bytes. A frame of another
// version is refused by name: there is one reader.
//
// # Durability policies
//
// The fsync cost is tunable per deployment (SyncAlways / SyncInterval /
// SyncNever): every Commit writes its frame to the OS, and the policy
// decides when fdatasync pins them to the platter — always before the
// decision is acknowledged, on a background interval, or never (the OS
// page cache decides). The log is prefix-consistent under all three; the
// policy only bounds how much acknowledged tail a power loss can cost.
package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapTemp   = snapPrefix + "*.tmp" // a snapshot before its rename
)

// SegmentPath returns the path of WAL segment n inside dir.
func SegmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%010d%s", segPrefix, n, segSuffix))
}

// SnapshotPath returns the path of snapshot n inside dir.
func SnapshotPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%010d%s", snapPrefix, n, snapSuffix))
}

// listNumbered collects the sorted indexes of files named
// <prefix><number><suffix> in dir. A missing directory lists empty.
func listNumbered(dir, prefix, suffix string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		n, err := strconv.Atoi(num)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// Segments returns the sorted indexes of the WAL segments present in dir.
func Segments(dir string) ([]int, error) { return listNumbered(dir, segPrefix, segSuffix) }

// Snapshots returns the sorted indexes of the snapshots present in dir.
func Snapshots(dir string) ([]int, error) { return listNumbered(dir, snapPrefix, snapSuffix) }

// diskBytes sums the sizes of the segments and snapshots in dir.
func diskBytes(dir string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		name := e.Name()
		seg := strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
		snap := strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix)
		if !seg && !snap {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// syncDir fsyncs a directory so renames and creates inside it survive a
// crash. Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
