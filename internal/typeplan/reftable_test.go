package typeplan

import (
	"math"
	"reflect"
	"testing"
)

// TestRefTableInternGrowReset drives the alias table directly: ids are
// handed out in first-sight order across the spill from the small keys
// and across growth, a key matches only on all of address, plan, length
// and capacity (keys sharing an address share a probe chain), a reset
// starts the numbering over, and an epoch that wraps does not revive the
// slots of 2³² resets ago.
func TestRefTableInternGrowReset(t *testing.T) {
	plans := []*Plan{For(reflect.TypeOf(0)), For(reflect.TypeOf(""))}
	var keys []refKey
	for p := uintptr(0); p < 300; p++ {
		for _, pl := range plans {
			ptr := 0x1000 + 8*p
			keys = append(keys, refKey{ptr, pl, 0, 0}, refKey{ptr, pl, 3, 0}, refKey{ptr, pl, 3, 4})
		}
	}
	var tab RefTable
	for round := 0; round < 2; round++ {
		tab.Reset()
		for i, k := range keys {
			if id, seen := tab.Intern(k.ptr, k.plan, k.len, k.cap); seen || id != i+1 {
				t.Fatalf("round %d: first intern of key %d = (%d, %v), want (%d, false)", round, i, id, seen, i+1)
			}
		}
		for i, k := range keys {
			if id, seen := tab.Intern(k.ptr, k.plan, k.len, k.cap); !seen || id != i+1 {
				t.Fatalf("round %d: second intern of key %d = (%d, %v), want (%d, true)", round, i, id, seen, i+1)
			}
		}
	}
	if len(tab.slots) < 2*len(keys) {
		t.Fatalf("%d slots hold %d keys: load above one half", len(tab.slots), len(keys))
	}

	// Slots written in epoch 1, then 2³² - 1 resets: the wrap lands on
	// epoch 1 again.
	var wrap RefTable
	wrap.Reset()
	few := keys[:2*smallRefs]
	for _, k := range few {
		wrap.Intern(k.ptr, k.plan, k.len, k.cap)
	}
	wrap.epoch = math.MaxUint32
	wrap.Reset()
	if wrap.epoch != 1 {
		t.Fatalf("wrapped epoch = %d, want 1", wrap.epoch)
	}
	for _, k := range few {
		if _, seen := wrap.Intern(k.ptr, k.plan, k.len, k.cap); seen {
			t.Fatal("a slot written before the epoch wrapped reads as live")
		}
	}
}

// TestRefTableSmallAllocatesNothing: a table that never holds more than
// the small keys allocates no slots, however often it is reset.
func TestRefTableSmallAllocatesNothing(t *testing.T) {
	pl := For(reflect.TypeOf(0))
	var tab RefTable
	allocs := testing.AllocsPerRun(100, func() {
		tab.Reset()
		for i := 0; i < smallRefs; i++ {
			tab.Intern(uintptr(0x1000+8*i), pl, 0, 0)
			tab.Intern(uintptr(0x1000+8*i), pl, 0, 0)
		}
	})
	if allocs != 0 || tab.slots != nil || &tab.keys[0] != &tab.small[0] {
		t.Fatalf("%d small keys: %.0f allocs, %d slots; want none, keys in the table's array", smallRefs, allocs, len(tab.slots))
	}
}

// FuzzRefTable checks the table against a plain map over a sequence of
// interns and resets decoded from the input, starting from the zero table: ids come in insertion order,
// a repeat finds its first id, and keys that differ only in length or
// only in capacity stay distinct. Each op is 3 bytes: an address index,
// a key variant (plan, length, capacity) and a reset flag. Few addresses
// make long probe chains; many ops make the table spill and grow.
func FuzzRefTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 0, 1, 4, 0, 1, 5, 0, 1, 3, 1, 1, 3, 0})
	seed := make([]byte, 0, 3*200)
	for i := 0; i < 200; i++ {
		seed = append(seed, byte(i%37), byte(i%11), 0)
	}
	f.Add(seed)
	plans := []*Plan{For(reflect.TypeOf(0)), For(reflect.TypeOf([]int(nil)))}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab RefTable // the zero table, as a fresh checkpoint has
		ref := map[refKey]int{}
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i+2]&1 == 1 {
				tab.Reset()
				clear(ref)
			}
			v := int(ops[i+1])
			k := refKey{ptr: 0x1000 + 8*uintptr(ops[i]), plan: plans[v%2], len: v / 2 % 3, cap: v / 6 % 3}
			want, wantSeen := ref[k]
			if !wantSeen {
				want = len(ref) + 1
				ref[k] = want
			}
			if id, seen := tab.Intern(k.ptr, k.plan, k.len, k.cap); id != want || seen != wantSeen {
				t.Fatalf("op %d: Intern(%#x, %s, %d, %d) = (%d, %v), want (%d, %v)",
					i/3, k.ptr, k.plan.TypeStr, k.len, k.cap, id, seen, want, wantSeen)
			}
		}
	})
}
