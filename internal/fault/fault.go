// Package fault defines the exception values that flow through the
// failatomic runtime.
//
// Go has no exceptions; the reproduction models them as panics carrying
// *Exception values. A method "throws" by calling Throw (or panicking with
// an *Exception), and "declares" its exceptions by registering the Kinds it
// may raise. The injection engine additionally raises generic runtime kinds
// (RuntimeError, OutOfMemory) in any method, mirroring the paper's
// undeclared runtime exceptions.
package fault

import (
	"fmt"
	"runtime"
	"strings"
)

// Kind names an exception type. Applications define their own kinds; the
// runtime kinds below can be raised by any method.
type Kind string

// Generic runtime kinds, injectable into every method (the analog of Java's
// undeclared RuntimeException/Error hierarchy).
const (
	RuntimeError Kind = "RuntimeError"
	OutOfMemory  Kind = "OutOfMemory"
)

// Common declared kinds shared by the bundled applications.
const (
	IndexOutOfBounds Kind = "IndexOutOfBounds"
	IllegalElement   Kind = "IllegalElement"
	NoSuchElement    Kind = "NoSuchElement"
	IllegalArgument  Kind = "IllegalArgument"
	IllegalState     Kind = "IllegalState"
	CapacityExceeded Kind = "CapacityExceeded"
	ParseError       Kind = "ParseError"
	IOError          Kind = "IOError"
)

// RuntimeKinds is the default set of undeclared kinds the injector raises in
// every method on top of the method's declared kinds.
func RuntimeKinds() []Kind {
	return []Kind{RuntimeError, OutOfMemory}
}

// Exception is the value carried by a panic that models a thrown exception.
type Exception struct {
	// Kind is the exception type.
	Kind Kind
	// Method is the "Class.Method" name the exception originated in.
	Method string
	// Msg is the human-readable detail message.
	Msg string
	// Injected reports whether the exception was raised by the injection
	// engine rather than by application logic.
	Injected bool
	// Point is the global injection-point counter value at which the
	// exception was injected (0 for organic exceptions).
	Point int
	// Foreign reports that the recovered panic value was not an
	// *Exception — a crash (nil dereference, index out of range, an
	// explicit panic with a foreign value) wrapped for uniform handling.
	// The campaign supervisor treats foreign escapes as crashes to retry
	// and quarantine rather than as modeled exceptions.
	Foreign bool
	// Stack is a truncated, normalized stack captured when a foreign
	// panic was wrapped (empty otherwise): function names and file:line
	// only, newest frame first, from the original crash site down to the
	// workload (re-raising wrappers and campaign-driver frames are cut),
	// so hung/quarantined-point reports are triageable and deterministic
	// workloads produce identical stacks across processes (resume logs
	// rely on that).
	Stack string
}

var _ error = (*Exception)(nil)

// Error implements the error interface.
func (e *Exception) Error() string {
	origin := e.Method
	if origin == "" {
		origin = "?"
	}
	tag := ""
	if e.Injected {
		tag = fmt.Sprintf(" [injected@%d]", e.Point)
	}
	if e.Msg == "" {
		return fmt.Sprintf("%s in %s%s", e.Kind, origin, tag)
	}
	return fmt.Sprintf("%s in %s: %s%s", e.Kind, origin, e.Msg, tag)
}

// Throw panics with a new organic (non-injected) Exception.
func Throw(kind Kind, method, format string, args ...any) {
	panic(&Exception{
		Kind:   kind,
		Method: method,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// New returns an injected Exception for the given injection point.
func New(kind Kind, method string, point int) *Exception {
	return &Exception{
		Kind:     kind,
		Method:   method,
		Injected: true,
		Point:    point,
	}
}

// From converts an arbitrary recovered panic value into an *Exception.
// Foreign panics (index out of range, nil dereference, explicit panics with
// non-Exception values) are wrapped as RuntimeError, mirroring how the paper
// treats undeclared runtime exceptions; the wrapped Exception is marked
// Foreign and carries a truncated stack of the panic site for triage.
func From(r any) *Exception {
	if e, ok := r.(*Exception); ok {
		return e
	}
	msg := ""
	if err, ok := r.(error); ok {
		msg = err.Error()
	} else {
		msg = fmt.Sprint(r)
	}
	return &Exception{Kind: RuntimeError, Msg: msg, Foreign: true, Stack: capturedStack()}
}

// maxStackFrames bounds the stack captured for a foreign panic.
const maxStackFrames = 12

// capturedStack renders the current goroutine's stack for foreign-panic
// triage. It is called from inside a recover() while the panicked frames
// are still live, so the panic site is visible. Normalization keeps one
// "func (file:line)" entry per frame — goroutine ids, argument values and
// pc offsets are dropped — so a deterministic workload yields a
// byte-identical stack in every process, which crash-safe resume logs
// depend on.
func capturedStack() string {
	buf := make([]byte, 32<<10)
	n := runtime.Stack(buf, false)
	lines := strings.Split(strings.TrimRight(string(buf[:n]), "\n"), "\n")
	// lines[0] is "goroutine N [running]:"; frames follow as pairs of a
	// function line and an indented "file:line +0x..." location line.
	type frame struct{ fn, loc string }
	var frames []frame
	for i := 1; i+1 < len(lines); i += 2 {
		fn := lines[i]
		if strings.HasPrefix(fn, "created by ") {
			if j := strings.Index(fn, " in goroutine"); j > 0 {
				fn = fn[:j]
			}
		} else if j := strings.LastIndexByte(fn, '('); j > 0 {
			fn = fn[:j]
		}
		loc := strings.TrimSpace(lines[i+1])
		if j := strings.IndexByte(loc, ' '); j > 0 {
			loc = loc[:j]
		}
		if j := strings.LastIndexByte(loc, '/'); j >= 0 {
			loc = loc[j+1:]
		}
		frames = append(frames, frame{fn, loc})
	}
	// Start at the original crash site. Everything above the most recent
	// panic marker — this function, From, the deferred catcher,
	// runtime.gopanic — is recovery plumbing. A foreign panic that unwound
	// through woven wrappers was also recovered and re-raised by each of
	// them, leaving one more marker per wrapper whose caller is the engine
	// (failatomic/internal/core); the crash site follows the first marker
	// raised anywhere else, or the oldest marker if every one is the
	// engine's.
	start := 0
	for i, f := range frames {
		if f.fn != "panic" && f.fn != "runtime.gopanic" && f.fn != "runtime.sigpanic" {
			continue
		}
		// Runtime panics put panicmem/sigpanic between gopanic and the
		// faulting frame; skip past them to the crash site.
		j := i + 1
		for j < len(frames) && strings.HasPrefix(frames[j].fn, "runtime.") {
			j++
		}
		start = j
		if j < len(frames) && !strings.HasPrefix(frames[j].fn, "failatomic/internal/core.") {
			break
		}
	}
	if start >= len(frames) {
		start = 0
	}
	if start == 0 {
		// Not called during a panic: skip our own frames instead.
		for start < len(frames) && strings.HasPrefix(frames[start].fn, "failatomic/internal/fault.") {
			start++
		}
	}
	frames = frames[start:]
	// Below the workload sit the campaign driver's frames, whose line
	// numbers say nothing about the crash; cut them (never the crash site
	// itself).
	for i := 1; i < len(frames); i++ {
		if strings.HasPrefix(frames[i].fn, "failatomic/internal/inject.") {
			frames = frames[:i]
			break
		}
	}
	if len(frames) > maxStackFrames {
		frames = frames[:maxStackFrames]
	}
	var b strings.Builder
	for i, f := range frames {
		if i > 0 {
			b.WriteString(" <- ")
		}
		b.WriteString(f.fn)
		b.WriteString(" (")
		b.WriteString(f.loc)
		b.WriteString(")")
	}
	return b.String()
}
