package core

import "failatomic/internal/objgraph"

// Span is the lifetime of one receiver-bearing call in a span-recording
// run (Config.RecordSpans), measured on the global injection-point
// counter: Enter is the counter once the call's own points were counted
// (its exit handler is installed at that moment) and Exit is the counter
// when the handler ran. Unwound reports that the call returned with an
// exception.
type Span struct {
	Call    CallID
	Enter   int
	Exit    int
	Unwound bool

	// checkpointed reports that the call's masking checkpoint was captured
	// and the call returned normally; bytes is then that checkpoint's
	// Handle.Bytes(). A predicted session counts a call whose capture it
	// skips with these (see Config.Predict).
	checkpointed bool
	bytes        int

	// before is the call's before-state as a fingerprint-mode
	// span-recording run saw it. It is kept only when the call can be live
	// at some injection point (Exit > Enter or Unwound): any other call
	// returns normally, as in the clean run, whatever the point.
	before *cleanBefore
}

// cleanBefore is a clean run's before-state of one call: the fingerprint
// every snapshot of the call compares against, and the captured graph it
// summarizes.
type cleanBefore struct {
	fp    objgraph.FP
	graph *objgraph.Graph
}

// SpanIndex holds a clean run's spans for predicted snapshots
// (Config.Predict). Run P of a threshold sweep is the clean run until
// point P fires, so a call that unwinds in run P is one of:
//
//	(a) unwound by an earlier exception, as in the clean run: Unwound and
//	    Exit < P;
//	(b) live when P fired: Enter < P <= Exit;
//	(c) entered after the injection.
//
// The index answers (a) ∪ (b) per call in O(1); the session covers (c) by
// snapshotting every call once an exception has been injected. It also
// holds the clean run's captured before-states (cleanDiff). One index is
// shared, read-only, by every experiment of a campaign.
type SpanIndex struct {
	spans map[CallID]Span
}

// IndexSpans indexes a span-recording run's spans by call identity.
func IndexSpans(spans []Span) *SpanIndex {
	x := &SpanIndex{spans: make(map[CallID]Span, len(spans))}
	for _, sp := range spans {
		x.spans[sp.Call] = sp
	}
	return x
}

// MayUnwind reports whether call can unwind in the run that injects at
// point, given that no exception has been injected yet when it is entered:
// groups (a) and (b) of the SpanIndex argument. A call without a clean-run
// span reports true, so a diverging run snapshots it instead of missing it.
func (x *SpanIndex) MayUnwind(call CallID, point int) bool {
	_, settled := x.settled(call, point)
	return !settled
}

// settled returns call's clean-run span and true when MayUnwind is false:
// the call returns normally in the run that injects at point, exactly as
// it did in the clean run.
func (x *SpanIndex) settled(call CallID, point int) (Span, bool) {
	sp, ok := x.spans[call]
	return sp, ok && !(sp.Enter < point && (sp.Unwound || point <= sp.Exit))
}

// cleanDiff returns the first-difference path from call's clean-run
// before-state to the graph at roots, or "" when the clean run kept no
// capture of call or its fingerprint is not before. Equal fingerprints
// mean the same canonical traversal (up to a 2⁻¹²⁸ collision), so the
// clean graph stands for the run's own before-state and the path is the
// one a capture-mode run reports.
func (x *SpanIndex) cleanDiff(call CallID, before objgraph.FP, roots []any) string {
	cb := x.spans[call].before
	if cb == nil || cb.fp != before {
		return ""
	}
	return objgraph.DiffLive(cb.graph, roots...)
}
