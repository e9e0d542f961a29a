// Command hcreplay audits and verifies the admission service's decision
// journal (hcserve -journal-dir). A shard's log is event-sourced: its
// input records alone deterministically re-derive every decision, so the
// log keeps the decisions and terminal events only as one digest per
// commit, and its checkpoints are redundant by construction — both
// therefore checkable.
//
// Verify mode replays every shard's log through a fresh engine built from
// the journal's manifest and fails on the first commit whose digest, or
// checkpoint whose state, the recomputation does not reproduce — naming the
// commit by its first sequence number and listing the records replay
// derived — on a log that ends without the digest of what its inputs
// derive, or on a log of another record format version (this build reads
// version 5, one CRC-checked frame per commit holding its inputs and one
// digest; it refuses versions 1 to 4 naming them). Inputs precede their
// effects and a commit reaches the log whole or not at all — a crash
// mid-write tears one frame, which the reader drops — so a log a crash cut
// anywhere verifies:
//
//	hcreplay -dir /var/lib/hcserve/journal -verify
//
// Audit mode explains one decision. It walks the shard's log as verify mode
// does, from the same start, and at the moment the task arrived prints the
// queue state the admission saw, the Eq. 1 completion-time PMF forecast for
// every queued task and for the arriving candidate on every machine, the
// dropping policy's verdict, the re-derived decision with the records its
// admission derived, and whether its commit's logged digest matches the
// re-derivation. The walk then goes on to the end of the log, comparing
// every commit digest and checkpoint it crosses, so the audit fails (exit
// 1) wherever verify mode would, and never explains a decision on a log a
// restart refuses:
//
//	hcreplay -dir /var/lib/hcserve/journal -shard 0 -decision 421 -v
//
// Audit output includes the decision's recorded stage timings (route,
// mailbox wait, calculus, dropper, journal, ack) when the server traced it
// (hcserve -trace-sample).
//
// # Trimmed logs
//
// Every checkpoint hcserve writes deletes the history recovery no longer
// reads, so a log keeps its two newest checkpoints and the segments after
// the older one. Both modes start where the log does: from genesis while
// segment 0 is on disk, otherwise from the checkpoint just before the first
// segment, or the next one should that not read. That checkpoint is taken
// as given — its CRC is checked, its
// contents are not re-derived, since the records that produced it are
// gone. Every retained record and every later checkpoint is re-derived as
// before. A decision older than the retained segments cannot be audited:
// -decision refuses it, naming the oldest sequence number it can explain.
// hcserve -snapshot-every -1 checkpoints only at a graceful drain, so a
// log served in one run keeps everything.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hpcclab/taskdrop/internal/service"
	"github.com/hpcclab/taskdrop/internal/telemetry"
)

func main() {
	var (
		dir       = flag.String("dir", "", "journal root directory (hcserve -journal-dir)")
		shard     = flag.Int("shard", -1, "shard to operate on (-1 = all shards, verify mode only)")
		verify    = flag.Bool("verify", false, "replay the log from its oldest retained start and check it against the recorded commit digests and checkpoints")
		decision  = flag.Int64("decision", -1, "audit this decision sequence number (requires -shard)")
		verbose   = flag.Bool("v", false, "audit mode: print full completion-time PMFs")
		logFormat = flag.String("log-format", "text", "log output format: text | json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcreplay:", err)
		os.Exit(2)
	}
	logger = logger.With("component", "hcreplay")

	if *dir == "" {
		logger.Error("missing -dir (the journal root hcserve wrote)")
		os.Exit(1)
	}
	switch {
	case *decision >= 0:
		if *shard < 0 {
			logger.Error("-decision requires -shard (a sequence number is decided by exactly one shard)")
			os.Exit(1)
		}
		if err := service.AuditDecision(os.Stdout, *dir, *shard, *decision, *verbose); err != nil {
			logger.Error("audit failed", "shard", *shard, "decision", *decision, "err", err)
			os.Exit(1)
		}
	case *verify:
		var stats []*service.VerifyStats
		var err error
		if *shard >= 0 {
			var st *service.VerifyStats
			st, err = service.VerifyShard(*dir, *shard)
			if st != nil {
				stats = []*service.VerifyStats{st}
			}
		} else {
			stats, err = service.VerifyAll(*dir)
		}
		for _, st := range stats {
			fmt.Printf("shard %d: %d records (%d arrives, %d commit digests matched over %d derived records), %d checkpoints verified, watermark %d",
				st.Shard, st.Records, st.Arrives, st.Digests, st.Derived, st.Checkpoints, st.FinalSeqWatermark)
			if st.Membership > 0 {
				fmt.Printf(", %d membership ops applied", st.Membership)
			}
			if st.Traces > 0 {
				fmt.Printf(", %d stage traces skipped", st.Traces)
			}
			fmt.Println()
		}
		if err != nil {
			logger.Error("verification FAILED", "err", err)
			os.Exit(1)
		}
		fmt.Println("journal verified: every commit digest and checkpoint matches the deterministic replay")
	default:
		logger.Error("nothing to do: pass -verify, or -shard and -decision to audit one decision")
		os.Exit(1)
	}
}
