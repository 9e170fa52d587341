package jwg

import (
	"failatomic/internal/checkpoint"
	"failatomic/internal/fault"
	"failatomic/internal/objgraph"
)

// InjectionFilter implements the detection phase's exception injection for
// proxied objects: a global point counter and a threshold, as in Listing 1
// (the filter form of inj_wrapper_m).
type InjectionFilter struct {
	// Kinds lists the exception kinds to inject per call (declared kinds
	// of the wrapped method plus the generic runtime kinds).
	Kinds func(method string) []fault.Kind
	// InjectionPoint is the threshold; 0 counts without firing.
	InjectionPoint int
	// Point is the running counter.
	Point int
	// Injected records the exception raised in this run.
	Injected *fault.Exception
}

// Before implements Filter: it evaluates the injection points.
func (f *InjectionFilter) Before(inv *Invocation) {
	kinds := fault.RuntimeKinds()
	if f.Kinds != nil {
		kinds = append(f.Kinds(inv.Name()), kinds...)
	}
	for _, kind := range kinds {
		f.Point++
		if f.Point == f.InjectionPoint {
			exc := fault.New(kind, inv.Name(), f.Point)
			f.Injected = exc
			panic(exc)
		}
	}
}

// After implements Filter (no-op).
func (f *InjectionFilter) After(inv *Invocation, out *Outcome) {}

// DetectionMark is one proxied atomicity observation.
type DetectionMark struct {
	Method    string
	Atomic    bool
	Diff      string
	Exception *fault.Exception
}

// DetectionFilter implements Listing 1's comparison half for proxied
// objects: snapshot the target's object graph before the call, compare
// after an exceptional return. Proxied detection is top-level only — the
// wrapped method's internal calls are invisible, the limitation §5.2 notes
// for classes the JWG cannot instrument — but a proxied method that calls
// another proxied object nests: each open call keeps its own before-graph.
type DetectionFilter struct {
	// Marks accumulates the observations.
	Marks []DetectionMark

	// befores holds the before-graph of each open call, innermost last;
	// After always ends the innermost one.
	befores []*objgraph.Graph
}

// Before implements Filter.
func (f *DetectionFilter) Before(inv *Invocation) {
	f.befores = append(f.befores, objgraph.Capture(inv.Target))
}

// After implements Filter.
func (f *DetectionFilter) After(inv *Invocation, out *Outcome) {
	last := len(f.befores) - 1
	before := f.befores[last]
	f.befores[last] = nil
	f.befores = f.befores[:last]
	if out.Exception == nil {
		return
	}
	diff := objgraph.DiffLive(before, inv.Target)
	f.Marks = append(f.Marks, DetectionMark{
		Method:    inv.Name(),
		Atomic:    diff == "",
		Diff:      diff,
		Exception: out.Exception,
	})
}

// NonAtomicMethods returns the methods observed failure non-atomic.
func (f *DetectionFilter) NonAtomicMethods() []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range f.Marks {
		if !m.Atomic && !seen[m.Method] {
			seen[m.Method] = true
			out = append(out, m.Method)
		}
	}
	return out
}

// MaskingFilter implements Listing 2 for proxied objects: checkpoint the
// target before the call, roll back on exception. With Swallow set the
// exception is additionally masked from the caller (the filter returns the
// zero results), otherwise it is re-thrown after the rollback like the
// paper's atomicity wrapper. Nested proxied calls each keep their own
// checkpoint.
type MaskingFilter struct {
	// Strategy overrides the checkpoint strategy (nil = deep copy).
	Strategy checkpoint.Strategy
	// Swallow converts masked exceptions into normal returns.
	Swallow bool
	// Rollbacks counts masked exceptions.
	Rollbacks int
	// Skips records capture failures (the call proceeds unmasked).
	Skips []error

	// handles holds the checkpoint of each open call, innermost last (nil
	// where the capture failed).
	handles []checkpoint.Handle
}

// Before implements Filter.
func (f *MaskingFilter) Before(inv *Invocation) {
	strategy := f.Strategy
	if strategy == nil {
		strategy = checkpoint.DeepCopy()
	}
	h, err := strategy.Capture(inv.Target)
	if err != nil {
		f.Skips = append(f.Skips, err)
		h = nil
	}
	f.handles = append(f.handles, h)
}

// After implements Filter.
func (f *MaskingFilter) After(inv *Invocation, out *Outcome) {
	last := len(f.handles) - 1
	h := f.handles[last]
	f.handles[last] = nil
	f.handles = f.handles[:last]
	if h == nil {
		return
	}
	if out.Exception == nil {
		if c, ok := h.(checkpoint.Committer); ok {
			c.Commit()
		}
		return
	}
	if err := h.Rollback(); err != nil {
		f.Skips = append(f.Skips, err)
		return
	}
	f.Rollbacks++
	if f.Swallow {
		out.Mask()
	}
}

// TraceFilter records the invocation order — the classic JWG demo filter.
type TraceFilter struct {
	// Label tags the filter's entries.
	Label string
	// Events accumulates "pre:Label:Class.Method" / "post:..." entries.
	Events *[]string
}

// Before implements Filter.
func (f TraceFilter) Before(inv *Invocation) {
	*f.Events = append(*f.Events, "pre:"+f.Label+":"+inv.Name())
}

// After implements Filter.
func (f TraceFilter) After(inv *Invocation, out *Outcome) {
	*f.Events = append(*f.Events, "post:"+f.Label+":"+inv.Name())
}
