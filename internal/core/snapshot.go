package core

import (
	"fmt"

	"failatomic/internal/objgraph"
)

// SnapshotMode selects how a detecting session summarizes the before-state
// of each wrapped call.
//
// A campaign reads a before-snapshot back only at the calls an exception
// unwinds, so most snapshots would be discarded unread; threshold runs
// skip the calls their clean run predicts cannot unwind (SpanIndex), and
// the rest stay cheap. Fingerprint mode folds the same canonical
// traversal into a streaming 128-bit hash (objgraph.Fingerprint) — zero
// Node allocations — and leaves Mark.Diff empty on non-atomic marks. The
// campaign driver recovers the human-readable diff by deterministically
// replaying only those runs, with capture snapshots restricted to the
// marked calls (Config.DiffCalls), and copying each recovered Diff into
// the first pass's mark with the same Seq (see internal/inject).
type SnapshotMode uint8

const (
	// SnapshotFingerprint (the default) compares 128-bit graph
	// fingerprints. Atomicity verdicts match capture mode up to hash
	// collisions (~2⁻¹²⁸ per comparison); Diff is left empty.
	SnapshotFingerprint SnapshotMode = iota
	// SnapshotCapture materializes full object graphs and reports the
	// path to the first difference — the original behavior, used by the
	// diff-recovery replay (at the calls Config.DiffCalls lists) and as
	// an escape hatch (at every call).
	SnapshotCapture
)

// String returns the mode's knob spelling.
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

// ParseSnapshotMode parses a knob value. The empty string means the
// default (fingerprint), so zero-valued specs round-trip.
func ParseSnapshotMode(s string) (SnapshotMode, error) {
	switch s {
	case "", "fingerprint":
		return SnapshotFingerprint, nil
	case "capture":
		return SnapshotCapture, nil
	default:
		return 0, fmt.Errorf("unknown snapshot mode %q (want fingerprint or capture)", s)
	}
}

// objgraphSnapshot is a thin adapter over objgraph so the session code
// reads at one level of abstraction.
type objgraphSnapshot struct {
	graph *objgraph.Graph
}

func snapshot(roots []any) *objgraphSnapshot {
	return &objgraphSnapshot{graph: objgraph.Capture(roots...)}
}

// diff returns the path to the first difference between two snapshots, or
// "" if the object graphs are identical.
func (s *objgraphSnapshot) diff(other *objgraphSnapshot) string {
	return objgraph.Diff(s.graph, other.graph)
}
