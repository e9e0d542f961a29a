// Package journal implements the event-sourced decision log of the
// admission service: a per-shard append-only write-ahead log (WAL) of
// immutable, length-prefixed, CRC-checked records, with periodic state
// snapshots so recovery replays only the log tail.
//
// Every admission shard is a deterministic single-writer loop — decisions
// are a pure function of the fed task sequence — which is precisely the
// event-sourcing sweet spot: journaling the arrivals (plus the decisions
// and terminal task events they caused, for audit) is enough to
// reconstruct the exact pre-crash engine by replay. The package is
// deliberately generic: it stores framed Records and opaque snapshot
// payloads; what goes inside them is the caller's contract
// (internal/service encodes shard checkpoints, cmd/hcreplay re-derives
// past decisions).
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
// # Record framing
//
// Each record is framed as
//
//	u32 payload length | u32 CRC-32C of payload | payload
//
// (little-endian). A torn tail — a partial frame or a CRC mismatch from a
// crash mid-write — is detected on open; the reader surfaces the valid
// prefix and the writer truncates the tail before appending again.
//
// # Durability policies
//
// The fsync cost is tunable per deployment (SyncAlways / SyncInterval /
// SyncNever): every Commit flushes records to the OS, and the policy
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
