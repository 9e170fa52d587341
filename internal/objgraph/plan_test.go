package objgraph

import (
	"fmt"
	"reflect"
	"sync"
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

// checkLinks walks every plan reachable from t's and asserts each linked
// child plan is the very plan planFor returns for the child type.
func checkLinks(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	if seen[typ] {
		return
	}
	seen[typ] = true
	p := planFor(typ)
	if p.kind != typ.Kind() || p.typeStr != typ.String() {
		t.Fatalf("plan for %v: kind %v, type %q", typ, p.kind, p.typeStr)
	}
	switch typ.Kind() {
	case reflect.Struct:
		for i, f := range p.fields {
			ft := typ.Field(i).Type
			if f.plan != planFor(ft) {
				t.Fatalf("%v.%s: linked plan is not planFor(%v)", typ, f.name, ft)
			}
			checkLinks(t, ft, seen)
		}
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		if p.elem != planFor(typ.Elem()) {
			t.Fatalf("%v: linked element plan is not planFor(%v)", typ, typ.Elem())
		}
		checkLinks(t, typ.Elem(), seen)
	default:
		if p.elem != nil || p.fields != nil {
			t.Fatalf("%v: %v plans link no children", typ, typ.Kind())
		}
	}
}

// TestPlansLinkChildPlans: self-recursive, mutually recursive and
// interface-bearing types compile, and every linked child plan is the
// interned plan of the child type — so the encoders, which take child
// plans from their parent instead of looking them up, see the same plans
// as a lookup would.
func TestPlansLinkChildPlans(t *testing.T) {
	for _, v := range []any{&planSelf{}, planMutualB{}, &planIface{}} {
		checkLinks(t, reflect.TypeOf(v), map[reflect.Type]bool{})
	}
	self := planFor(reflect.TypeOf(planSelf{}))
	if self.fields[1].plan.elem != self || self.fields[2].plan.elem != self {
		t.Fatal("planSelf must link back to itself through Next and Kids")
	}
}

// TestPlanCompileRaceSafe: goroutines racing to compile the same fresh
// types agree on one plan per type. (reflect.StructOf interns, so every
// goroutine builds the identical, never-before-seen type.)
func TestPlanCompileRaceSafe(t *testing.T) {
	inner := reflect.StructOf([]reflect.StructField{{Name: "PlanRaceX", Type: reflect.TypeOf(0)}})
	outer := reflect.StructOf([]reflect.StructField{
		{Name: "PlanRaceP", Type: reflect.PointerTo(inner)},
		{Name: "PlanRaceS", Type: reflect.SliceOf(inner)},
	})
	const n = 8
	plans := make([]*typePlan, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = planFor(outer)
		}()
	}
	wg.Wait()
	for _, p := range plans[1:] {
		if p != plans[0] {
			t.Fatal("racing compilations produced distinct plans for one type")
		}
	}
	checkLinks(t, outer, map[reflect.Type]bool{})
}

// TestRecursiveValuesEncode: linked plans drive both encoders through
// cyclic values and interface fields exactly as before.
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
