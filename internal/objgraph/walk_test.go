package objgraph

import (
	"math"
	"reflect"
	"testing"
)

// TestRefTableInternGrowReset drives the alias table directly: ids are
// handed out in first-sight order across growth, a key matches only on
// all of address, plan and length (keys sharing an address share a
// probe chain), a reset starts the numbering over, and an epoch that
// wraps does not revive the slots of 2³² resets ago.
func TestRefTableInternGrowReset(t *testing.T) {
	plans := []*typePlan{planFor(reflect.TypeOf(0)), planFor(reflect.TypeOf(""))}
	type key struct {
		ptr  uintptr
		plan *typePlan
		aux  int
	}
	var keys []key
	for p := uintptr(0); p < 300; p++ {
		for _, pl := range plans {
			keys = append(keys, key{0x1000 + 8*p, pl, 0}, key{0x1000 + 8*p, pl, 3})
		}
	}
	var tab refTable
	for round := 0; round < 2; round++ {
		tab.reset()
		for i, k := range keys {
			if id, seen := tab.intern(k.ptr, k.plan, k.aux); seen || id != i+1 {
				t.Fatalf("round %d: first intern of key %d = (%d, %v), want (%d, false)", round, i, id, seen, i+1)
			}
		}
		for i, k := range keys {
			if id, seen := tab.intern(k.ptr, k.plan, k.aux); !seen || id != i+1 {
				t.Fatalf("round %d: second intern of key %d = (%d, %v), want (%d, true)", round, i, id, seen, i+1)
			}
		}
	}
	if len(tab.slots) < 2*len(keys) {
		t.Fatalf("%d slots hold %d keys: load above one half", len(tab.slots), len(keys))
	}

	// Slots written in epoch 1, then 2³² - 1 resets: the wrap lands on
	// epoch 1 again.
	var wrap refTable
	wrap.reset()
	for _, k := range keys[:4] {
		wrap.intern(k.ptr, k.plan, k.aux)
	}
	wrap.epoch = math.MaxUint32
	wrap.reset()
	if wrap.epoch != 1 {
		t.Fatalf("wrapped epoch = %d, want 1", wrap.epoch)
	}
	for _, k := range keys[:4] {
		if _, seen := wrap.intern(k.ptr, k.plan, k.aux); seen {
			t.Fatal("a slot written before the epoch wrapped reads as live")
		}
	}
}
