package core

import "fmt"

// SnapshotMode selects how a detecting session summarizes the before-state
// of each wrapped call.
//
// A campaign reads a before-snapshot back only at the calls an exception
// unwinds, so most snapshots would be discarded unread; threshold runs
// skip the calls their clean run predicts cannot unwind (SpanIndex), and
// the rest stay cheap. Fingerprint mode folds the same canonical
// traversal into a streaming 128-bit hash (objgraph.Fingerprint) — zero
// Node allocations — and leaves Mark.Diff empty on non-atomic marks.
//
// The human-readable diff comes from two places. The span-recording clean
// run also captures the before-state of each call some injection point
// can find live or unwound, and a predicted session whose call ends
// non-atomic from the clean fingerprint diffs its after-state against
// that capture (Session.MarkDiffs): equal fingerprints mean the same
// graph, so this is the path capture mode reports. The campaign driver
// recovers the remaining diffs by deterministically replaying only those
// runs, with capture snapshots restricted to the still-diffless calls
// (Config.DiffCalls), and copying each recovered Diff into the first
// pass's mark with the same Seq (see internal/inject).
type SnapshotMode uint8

const (
	// SnapshotFingerprint (the default) compares 128-bit graph
	// fingerprints. Atomicity verdicts match capture mode up to hash
	// collisions (~2⁻¹²⁸ per comparison); Diff is left empty.
	SnapshotFingerprint SnapshotMode = iota
	// SnapshotCapture materializes the before-state's full object graph
	// and, on an exceptional return, reports the path to the first
	// difference from the live after-state (objgraph.DiffLive, which
	// builds no after-graph) — the original behavior, used by the
	// diff-recovery replay (at the calls Config.DiffCalls lists, or at
	// every call when a replay diverged) and as the reference engine of
	// the fingerprint = capture identity tests and the fabench cells.
	SnapshotCapture
)

// String returns the mode's name, as the fabench cells spell it.
func (m SnapshotMode) String() string {
	switch m {
	case SnapshotFingerprint:
		return "fingerprint"
	case SnapshotCapture:
		return "capture"
	default:
		return fmt.Sprintf("SnapshotMode(%d)", uint8(m))
	}
}
