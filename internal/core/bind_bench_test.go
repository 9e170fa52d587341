package core

import "testing"

// BenchmarkGid is the cost of the stack-parse goroutine id: what
// Config.Serialize's reentrant lock pays per acquire to name its owner.
// Bindings are keyed by the profiler-label slot instead, because child
// goroutines share that key and a prologue cannot afford the parse.
func BenchmarkGid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if gid() == 0 {
			b.Fatal("gid 0")
		}
	}
}

// BenchmarkGlsKey is the cost of the binding-key read the bound-mode
// prologue actually pays (a few ns on the default build).
func BenchmarkGlsKey(b *testing.B) {
	s := NewSession(Config{})
	s.Bind(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if glsKey() == 0 {
				b.Fatal("no key inside Bind")
			}
		}
	})
}

// BenchmarkEnterBoundDetect measures the detection prologue by name
// through a goroutine-scoped session; compare with
// BenchmarkEnterGlobalDetect — the scoped route must not cost more than
// the legacy global route — and with BenchmarkEnterHandleBoundDetect,
// which skips the lookup of the name.
func BenchmarkEnterBoundDetect(b *testing.B) {
	s := NewSession(Config{Detect: true})
	s.Bind(func() {
		box := &bindBox{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box.Mutate(false)
		}
	})
}

// BenchmarkEnterHandleBoundDetect is BenchmarkEnterBoundDetect through a
// method handle, the route every bundled application's prologue takes.
func BenchmarkEnterHandleBoundDetect(b *testing.B) {
	s := NewSession(Config{Detect: true})
	s.Bind(func() {
		box := &bindBox{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			box.MutateByHandle(false)
		}
	})
}

// BenchmarkEnterGlobalDetect is the legacy-global baseline for
// BenchmarkEnterBoundDetect.
func BenchmarkEnterGlobalDetect(b *testing.B) {
	s := NewSession(Config{Detect: true})
	if err := Install(s); err != nil {
		b.Fatal(err)
	}
	defer Uninstall(s)
	box := &bindBox{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box.Mutate(false)
	}
}

// BenchmarkEnterSettled is BenchmarkEnterHandleBoundDetect for the calls
// of a predicted run that cannot unwind at its injection point (see
// Config.Predict): the prologue counts the call's point and defers the
// settled epilogue, taking no roots and pushing no frame. The session is
// reset every settledCalls calls, the length of the clean run it predicts
// from.
func BenchmarkEnterSettled(b *testing.B) {
	const settledCalls = 1024
	s, box := settledSession(settledCalls)
	s.Bind(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%settledCalls == 0 {
				s.Reset(s.cfg)
			}
			box.MutateByHandle(false)
		}
	})
}
