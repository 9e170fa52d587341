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
	// returns normally, as in the clean run, whatever the point, and the
	// run's session releases its capture at the call's exit.
	before *cleanBefore
}

// cleanBefore is a clean run's before-state of one call: the fingerprint
// every snapshot of the call compares against, and the captured graph it
// summarizes; after is the fingerprint the clean run's epilogue took of
// the after-state when the call unwound (zero otherwise).
//
// A predicted run takes both fingerprints from here instead of hashing
// them again, for a call entered before the injection at the clean span's
// Enter point (before), and for one that unwinds again at the clean span's
// Exit point, before the injection (after): run P is the clean run until
// point P fires (inject.Program.Run builds fresh objects on every run), so
// the state at either point is the clean run's. The point guards fall
// back to hashing when a workload diverges from its clean run.
type cleanBefore struct {
	fp    objgraph.FP
	after objgraph.FP
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
//
// Each method the spans name has one row of spans, indexed by call
// ordinal, and ids maps its handle's id to 1 + the row's index (0: no
// spans), so a predicting session reads a call's span at (method id, call
// ordinal) without hashing. The row is keyed by the per-method call
// ordinal, never by the run's global entry order: a call entered after the
// injection keeps its ordinal but not its place in the entry order.
type SpanIndex struct {
	ids  []int32
	rows [][]Span
}

// IndexSpans indexes a span-recording run's spans by call identity, with
// rows found by process-wide method handle id, so every session reads the
// index as it is; names, when given, are interned as handles too.
func IndexSpans(spans []Span, names ...string) *SpanIndex {
	for _, name := range names {
		Method(name)
	}
	x := &SpanIndex{}
	rows := make([]int32, len(spans)) // each span's row
	var counts []int64                // each row's length
	for i, sp := range spans {
		id := Method(sp.Call.Method).id
		if int(id) >= len(x.ids) {
			x.ids = append(x.ids, make([]int32, int(id)+1-len(x.ids))...)
		}
		if x.ids[id] == 0 {
			counts = append(counts, 0)
			x.ids[id] = int32(len(counts))
		}
		row := x.ids[id] - 1
		rows[i] = row
		counts[row] = max(counts[row], sp.Call.Call)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	flat := make([]Span, total)
	x.rows = make([][]Span, len(counts))
	for row, n := range counts {
		x.rows[row], flat = flat[:n:n], flat[n:]
	}
	for i, sp := range spans {
		x.rows[rows[i]][sp.Call.Call-1] = sp
	}
	return x
}

// span returns the clean-run span of method h's call-th call, or nil when
// the clean run recorded none (a row holds a zero Span there).
func (x *SpanIndex) span(h *MethodHandle, call int64) *Span {
	if int(h.id) >= len(x.ids) || x.ids[h.id] == 0 {
		return nil
	}
	row := x.rows[x.ids[h.id]-1]
	if call < 1 || call > int64(len(row)) || row[call-1].Call.Call != call {
		return nil
	}
	return &row[call-1]
}

// MayUnwind reports whether call can unwind in the run that injects at
// point, given that no exception has been injected yet when it is entered:
// groups (a) and (b) of the SpanIndex argument. A call without a clean-run
// span reports true, so a diverging run snapshots it instead of missing it.
func (x *SpanIndex) MayUnwind(call CallID, point int) bool {
	h := lookupMethod(call.Method)
	return h == nil || !settled(x.span(h, call.Call), point)
}

// settled reports, for a call whose clean-run span is sp (nil: none), that
// MayUnwind is false: the call returns normally in the run that injects at
// point, exactly as it did in the clean run.
func settled(sp *Span, point int) bool {
	return sp != nil && !(sp.Enter < point && (sp.Unwound || point <= sp.Exit))
}

// cleanAfter returns the clean run's after-fingerprint of method h's
// call-th call, and true, when that call unwound in the clean run at
// point, before injection: the after-state a run unwinding the call at
// the same point, before its injection, must have.
func (x *SpanIndex) cleanAfter(h *MethodHandle, call int64, point, injection int) (objgraph.FP, bool) {
	sp := x.span(h, call)
	if sp == nil || sp.before == nil || !sp.Unwound || sp.Exit != point || point >= injection {
		return objgraph.FP{}, false
	}
	return sp.before.after, true
}

// cleanDiff returns the first-difference path from the clean-run
// before-state of method h's call-th call to the graph at roots, or ""
// when the clean run kept no capture of that call or its fingerprint is
// not before. Equal fingerprints mean the same canonical traversal (up to
// a 2⁻¹²⁸ collision), so the clean graph stands for the run's own
// before-state and the path is the one a capture-mode run reports. A call
// whose before-fingerprint was taken from the clean run meets the check
// by construction; one that hashed its own may not. The diff runs on the
// calling session's scratch.
func (x *SpanIndex) cleanDiff(scratch *objgraph.Scratch, h *MethodHandle, call int64, before objgraph.FP, roots []any) string {
	sp := x.span(h, call)
	if sp == nil || sp.before == nil || sp.before.fp != before {
		return ""
	}
	return scratch.DiffLive(sp.before.graph, roots...)
}
