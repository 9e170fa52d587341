package typeplan

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"
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
			if f.Offset != typ.Field(i).Offset {
				t.Fatalf("%v.%s: offset %d, want %d", typ, f.Name, f.Offset, typ.Field(i).Offset)
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
		if typ.Kind() == reflect.Array && p.Len != typ.Len() {
			t.Fatalf("%v: length %d", typ, p.Len)
		}
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

type directOne struct{ p *int }

type directNested struct{ a [1]directOne }

type directChan struct{ c chan int }

// indirectPadded is one word, but a struct of two fields.
type indirectPadded struct {
	_ [0]int
	p *int
}

type indirectInt struct{ n int }

// TestPlanDirect checks Direct against where an interface really keeps
// each value: a Direct value is the interface's data word itself, any
// other value sits behind it in a copy. Every sample is one word whose
// bits are the address of a live int, which no copy can be, so the two
// readings cannot agree by accident.
func TestPlanDirect(t *testing.T) {
	x := new(int)
	fn := func() {}
	ch := make(chan int)
	m := map[int]int{}
	cases := []struct {
		v      any
		direct bool
	}{
		{x, true},
		{m, true},
		{ch, true},
		{fn, true},
		{unsafe.Pointer(x), true},
		{directOne{x}, true},
		{[1]*int{x}, true},
		{directNested{[1]directOne{{x}}}, true},
		{[1][1]*int{{x}}, true},
		{directChan{ch}, true},
		{struct{ f func() }{fn}, true},
		{uintptr(unsafe.Pointer(x)), false},
		{indirectInt{int(uintptr(unsafe.Pointer(x)))}, false},
		{[1]uintptr{uintptr(unsafe.Pointer(x))}, false},
		{indirectPadded{p: x}, false},
		{[1]indirectPadded{{p: x}}, false},
	}
	for _, tc := range cases {
		typ := reflect.TypeOf(tc.v)
		if typ.Size() != unsafe.Sizeof(uintptr(0)) {
			t.Fatalf("%v: %d bytes, not one word", typ, typ.Size())
		}
		data := (*[2]unsafe.Pointer)(unsafe.Pointer(&tc.v))[1]
		// The value's bits, read through an addressable copy.
		cp := reflect.New(typ)
		cp.Elem().Set(reflect.ValueOf(tc.v))
		bits := *(*unsafe.Pointer)(cp.UnsafePointer())
		if held := data == bits; held != tc.direct {
			t.Errorf("%v: the interface holds the value itself: %v, want %v", typ, held, tc.direct)
		}
		if got := For(typ).Direct; got != tc.direct {
			t.Errorf("%v: Direct = %v, want %v", typ, got, tc.direct)
		}
	}
	for _, v := range []any{"s", []int{}, [2]*int{}, struct{ a, b *int }{}, [0]*int{}} {
		if For(reflect.TypeOf(v)).Direct {
			t.Errorf("%T: a value of more or less than one word cannot be Direct", v)
		}
	}
}
