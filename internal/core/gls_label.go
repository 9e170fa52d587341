package core

// Goroutine-local binding keys via profiler labels. Session.Bind must
// route every instrumented prologue on the bound goroutine to its session,
// which needs a per-call goroutine identity; parsing it out of
// runtime.Stack costs microseconds — more than the prologue's real work.
// Instead we ride the runtime's goroutine-label slot: pprof.WithLabels
// allocates a fresh label map, SetGoroutineLabels stores its pointer in
// the g struct, and the two runtime accessors below (stable linkname
// surface used by the pprof package itself since Go 1.9) read and write
// that slot in a few nanoseconds. The pointer doubles as a unique binding
// key, and — like an installed global session — is inherited by goroutines
// spawned while bound.
//
// Trade-off: a workload that calls pprof.SetGoroutineLabels itself
// replaces the key mid-bind, after which its instrumented calls miss the
// binding and fall back to the global session (or become no-ops). That
// errs on the side of missed observations, the same one-sided guarantee
// the detector gives everywhere else.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"unsafe"
)

//go:linkname runtime_getProfLabel runtime/pprof.runtime_getProfLabel
func runtime_getProfLabel() unsafe.Pointer

//go:linkname runtime_setProfLabel runtime/pprof.runtime_setProfLabel
func runtime_setProfLabel(labels unsafe.Pointer)

// glsKey returns the calling goroutine's binding key (0 = definitely
// unbound). A non-zero key may also be an unrelated pprof label map; the
// registry lookup in bound() disambiguates.
func glsKey() uintptr {
	return uintptr(runtime_getProfLabel())
}

// glsBind installs a fresh unique key on the calling goroutine and
// returns it with a restore func that reinstates the previous key (and
// keeps the backing label map alive for the binding's whole lifetime, so
// the key cannot be recycled while it is in the registry).
func glsBind() (uintptr, func()) {
	prev := runtime_getProfLabel()
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("failatomic.bind", "session"))
	pprof.SetGoroutineLabels(ctx)
	key := uintptr(runtime_getProfLabel())
	return key, func() {
		runtime_setProfLabel(prev)
		runtime.KeepAlive(ctx)
	}
}
