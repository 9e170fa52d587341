package core

import (
	"context"
	"runtime/pprof"
	"testing"
)

// bindRoutes names the two ways bound() can find a binding: the shard's
// published record, or the shard map after a record miss (forced here by
// unpublishing the record, as a second binding in the shard would).
var bindRoutes = []struct {
	name  string
	enter func()
}{
	{"record", func() {}},
	{"shard-map", func() { shardFor(glsKey()).last.Store(nil) }},
}

// TestRelabelledWorkloadLosesBinding pins the trade-off gls_label.go
// documents: a workload that replaces its goroutine labels inside Bind
// loses the binding, so its later calls fall back to the installed global
// session, or do nothing without one. Both lookup routes agree.
func TestRelabelledWorkloadLosesBinding(t *testing.T) {
	relabel := func() {
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("workload", "own")))
	}
	for _, route := range bindRoutes {
		for _, withGlobal := range []bool{false, true} {
			var global *Session
			if withGlobal {
				global = NewSession(Config{})
				if err := Install(global); err != nil {
					t.Fatal(err)
				}
			}
			s := NewSession(Config{})
			box := &bindBox{}
			var before, after *Session
			s.Bind(func() {
				route.enter()
				before = Current()
				box.Mutate(false)
				relabel()
				after = Current()
				box.Mutate(false)
			})
			if withGlobal {
				Uninstall(global)
			}
			if before != s || after != global {
				t.Errorf("%s, global %v: routed to %p then %p, want the bound %p then %p", route.name, withGlobal, before, after, s, global)
			}
			if n := s.Calls()["bindBox.Mutate"]; n != 1 {
				t.Errorf("%s: bound session saw %d calls, want the one before relabelling", route.name, n)
			}
			if withGlobal && global.Calls()["bindBox.Mutate"] != 1 {
				t.Errorf("%s: global session saw %v, want the call after relabelling", route.name, global.Calls())
			}
		}
	}
}

// TestNestedBindRestoresOuterAfterPanic: an inner Bind unwound by a panic
// restores the outer session on both lookup routes, and the published
// record never outlives its binding. The inner Bind gets a key of its own,
// which is what lets the registry insert and delete it without saving the
// outer entry.
func TestNestedBindRestoresOuterAfterPanic(t *testing.T) {
	for _, route := range bindRoutes {
		outer, inner := NewSession(Config{}), NewSession(Config{})
		var during, restored *Session
		var outerKey, innerKey uintptr
		outer.Bind(func() {
			route.enter()
			outerKey = glsKey()
			catchPanic(func() {
				inner.Bind(func() {
					route.enter()
					innerKey = glsKey()
					during = Current()
					panic("inner")
				})
			})
			restored = Current()
			box := &bindBox{}
			box.Mutate(false)
		})
		if outerKey == 0 || innerKey == outerKey {
			t.Errorf("%s: outer key %#x, inner key %#x; want distinct non-zero keys", route.name, outerKey, innerKey)
		}
		if during != inner || restored != outer {
			t.Errorf("%s: inner routed to %p, after the panic %p; want %p then %p", route.name, during, restored, inner, outer)
		}
		if outer.Calls()["bindBox.Mutate"] != 1 || len(inner.Calls()) != 0 {
			t.Errorf("%s: outer saw %v, inner %v; want the call on outer", route.name, outer.Calls(), inner.Calls())
		}
		if Current() != nil {
			t.Fatalf("%s: a binding outlived Bind", route.name)
		}
		for i := range bindShards {
			if b := bindShards[i].last.Load(); b != nil {
				t.Fatalf("%s: shard %d still publishes a binding for %p", route.name, i, b.session)
			}
		}
	}
}
