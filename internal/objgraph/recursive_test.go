package objgraph

import (
	"fmt"
	"testing"
)

type planSelf struct {
	Val  int
	Next *planSelf
	Kids []planSelf
}

type planMutualA struct {
	B  *planMutualB
	Bs map[string]planMutualB
}

type planMutualB struct {
	A   *planMutualA
	Arr [2]*planMutualA
}

type planIface struct {
	Any  any
	Str  fmt.Stringer
	Self *planIface
}

// TestRecursiveValuesEncode: linked plans drive both encoders through
// cyclic values and interface fields.
func TestRecursiveValuesEncode(t *testing.T) {
	build := func(v int) *planIface {
		a := &planSelf{Val: v}
		a.Next = a
		a.Kids = []planSelf{{Val: v + 1}}
		m := &planMutualA{Bs: map[string]planMutualB{"k": {}}}
		m.B = &planMutualB{A: m, Arr: [2]*planMutualA{m, nil}}
		x := &planIface{Any: a, Str: nil}
		x.Self = &planIface{Any: m, Self: x}
		return x
	}
	x, y, z := build(1), build(1), build(2)
	if !Equal(Capture(x), Capture(y)) || Fingerprint(x) != Fingerprint(y) {
		t.Fatal("equal cyclic graphs must capture and fingerprint equal")
	}
	if Equal(Capture(x), Capture(z)) || Fingerprint(x) == Fingerprint(z) {
		t.Fatal("graphs differing behind an interface field must differ")
	}
	if d := Diff(Capture(x), Capture(z)); d == "" {
		t.Fatal("Diff must name the difference")
	}
}
