package typeplan

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
// child plan is the very plan For returns for the child type.
func checkLinks(t *testing.T, typ reflect.Type, seen map[reflect.Type]bool) {
	t.Helper()
	if seen[typ] {
		return
	}
	seen[typ] = true
	p := For(typ)
	if p.Type != typ || p.Kind != typ.Kind() || p.TypeStr != typ.String() {
		t.Fatalf("plan for %v: type %v, kind %v, type string %q", typ, p.Type, p.Kind, p.TypeStr)
	}
	switch typ.Kind() {
	case reflect.Struct:
		for i, f := range p.Fields {
			ft := typ.Field(i).Type
			if f.Plan != For(ft) {
				t.Fatalf("%v.%s: linked plan is not For(%v)", typ, f.Name, ft)
			}
			checkLinks(t, ft, seen)
		}
	case reflect.Map:
		if p.Key != For(typ.Key()) || p.Elem != For(typ.Elem()) {
			t.Fatalf("%v: linked key or value plan is not For(%v) or For(%v)", typ, typ.Key(), typ.Elem())
		}
		checkLinks(t, typ.Key(), seen)
		checkLinks(t, typ.Elem(), seen)
	case reflect.Pointer, reflect.Slice, reflect.Array:
		if p.Elem != For(typ.Elem()) || p.Key != nil {
			t.Fatalf("%v: linked element plan is not For(%v)", typ, typ.Elem())
		}
		checkLinks(t, typ.Elem(), seen)
	default:
		if p.Elem != nil || p.Key != nil || p.Fields != nil {
			t.Fatalf("%v: %v plans link no children", typ, typ.Kind())
		}
	}
}

// TestPlansLinkChildPlans: self-recursive, mutually recursive and
// interface-bearing types compile, and every linked child plan is the
// interned plan of the child type — so the engines, which take child
// plans from their parent instead of looking them up, see the same plans
// as a lookup would.
func TestPlansLinkChildPlans(t *testing.T) {
	for _, v := range []any{&planSelf{}, planMutualB{}, &planIface{}} {
		checkLinks(t, reflect.TypeOf(v), map[reflect.Type]bool{})
	}
	self := For(reflect.TypeOf(planSelf{}))
	if self.Fields[1].Plan.Elem != self || self.Fields[2].Plan.Elem != self {
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
	plans := make([]*Plan, n)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i] = For(outer)
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
