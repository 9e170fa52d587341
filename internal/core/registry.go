// Package core is the runtime half of the paper's contribution: the
// injection-point counter, the woven method prologue (Listing 1's injection
// wrapper and Listing 2's atomicity wrapper, composed), mark records with
// callee-first sequence numbers, and per-method call counting.
//
// Instrumented methods carry a single prologue line, through a method
// handle resolved once at package init (methods.go):
//
//	var mInsertAt = core.Method("LinkedList.InsertAt")
//
//	func (l *LinkedList) InsertAt(i int, v Item) {
//		defer mInsertAt.Enter(l)()
//		...
//	}
//
// or by name, as woven code does: defer core.Enter(l, "LinkedList.InsertAt")().
//
// When no Session is installed the prologue is a cheap no-op, so woven code
// runs at (almost) full speed in production. A Session configures which of
// the three behaviors are active: exception injection (detection phase,
// Step 3), object-graph comparison and marking (Listing 1), and
// checkpoint/rollback masking (Listing 2).
package core

import (
	"fmt"
	"sort"
	"strings"

	"failatomic/internal/fault"
)

// MethodInfo describes one instrumented method or constructor.
type MethodInfo struct {
	// Name is the full instrumentation name, e.g. "LinkedList.InsertAt".
	Name string
	// Class is the class the method belongs to.
	Class string
	// Ctor marks constructor functions (injection points without a
	// receiver to compare).
	Ctor bool
	// Declared lists the exception kinds the method declares (the analog
	// of a Java throws clause); the injector raises these plus the generic
	// runtime kinds.
	Declared []fault.Kind
}

// Registry maps instrumentation names to method metadata. It plays the role
// of the paper's Analyzer output: which methods exist and which exceptions
// each may throw (Step 1).
type Registry struct {
	methods map[string]*MethodInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{methods: make(map[string]*MethodInfo)}
}

// Method registers a method of class with its declared exception kinds and
// returns the registry for chaining.
func (r *Registry) Method(class, method string, declared ...fault.Kind) *Registry {
	name := class + "." + method
	r.methods[name] = &MethodInfo{Name: name, Class: class, Declared: declared}
	return r
}

// Ctor registers a constructor function for class (e.g. "NewLinkedList").
func (r *Registry) Ctor(class, fn string, declared ...fault.Kind) *Registry {
	r.methods[fn] = &MethodInfo{Name: fn, Class: class, Ctor: true, Declared: declared}
	return r
}

// Merge copies all entries of other into r and returns r.
func (r *Registry) Merge(other *Registry) *Registry {
	if other == nil {
		return r
	}
	for name, info := range other.methods {
		r.methods[name] = info
	}
	return r
}

// Info returns the metadata for name, or nil if unregistered.
func (r *Registry) Info(name string) *MethodInfo {
	if r == nil {
		return nil
	}
	return r.methods[name]
}

// Names returns all registered instrumentation names, sorted (none for a
// nil registry).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.methods))
	for name := range r.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered entries.
func (r *Registry) Len() int { return len(r.methods) }

// ClassOf resolves the class of an instrumentation name: the registered
// class if known, otherwise the prefix before the first dot, otherwise the
// name itself (free functions / constructors).
func (r *Registry) ClassOf(name string) string {
	if info := r.Info(name); info != nil {
		return info.Class
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// Validate checks registry consistency (non-empty names, no duplicate kinds
// per method) and returns an error describing the first problem.
func (r *Registry) Validate() error {
	for name, info := range r.methods {
		if name == "" || info.Name != name {
			return fmt.Errorf("core: registry entry %q has mismatched name %q", name, info.Name)
		}
		seen := make(map[fault.Kind]bool, len(info.Declared))
		for _, k := range info.Declared {
			if k == "" {
				return fmt.Errorf("core: method %q declares an empty fault kind", name)
			}
			if seen[k] {
				return fmt.Errorf("core: method %q declares kind %q twice", name, k)
			}
			seen[k] = true
		}
	}
	return nil
}
