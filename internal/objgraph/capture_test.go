package objgraph

import (
	"strings"
	"testing"
)

type point struct {
	X, Y int
}

type node struct {
	Value int
	Next  *node
}

type box struct {
	Name   string
	P      *point
	Tags   []string
	Counts map[string]int
	Any    any
}

func TestCaptureScalarEquality(t *testing.T) {
	tests := []struct {
		name string
		a, b any
		want bool
	}{
		{name: "equal ints", a: 3, b: 3, want: true},
		{name: "different ints", a: 3, b: 4, want: false},
		{name: "equal strings", a: "abc", b: "abc", want: true},
		{name: "different strings", a: "abc", b: "abd", want: false},
		{name: "equal bools", a: true, b: true, want: true},
		{name: "different bools", a: true, b: false, want: false},
		{name: "equal floats", a: 1.5, b: 1.5, want: true},
		{name: "different floats", a: 1.5, b: 1.6, want: false},
		{name: "nan equals nan bitwise", a: float64(0) / 1, b: float64(0) / 1, want: true},
		{name: "int vs int64 types differ", a: int(3), b: int64(3), want: false},
		{name: "nil vs nil", a: nil, b: nil, want: true},
		{name: "nil vs value", a: nil, b: 1, want: false},
		{name: "equal complex", a: complex(1, 2), b: complex(1, 2), want: true},
		{name: "different complex", a: complex(1, 2), b: complex(1, 3), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Equal(Capture(tt.a), Capture(tt.b))
			if got != tt.want {
				t.Fatalf("Equal(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCaptureStructAndPointer(t *testing.T) {
	a := &box{Name: "a", P: &point{X: 1, Y: 2}, Tags: []string{"t1"}}
	same := &box{Name: "a", P: &point{X: 1, Y: 2}, Tags: []string{"t1"}}
	if !Equal(Capture(a), Capture(same)) {
		t.Fatal("structurally identical boxes should compare equal")
	}
	diffY := &box{Name: "a", P: &point{X: 1, Y: 3}, Tags: []string{"t1"}}
	d := Diff(Capture(a), Capture(diffY))
	if d == "" {
		t.Fatal("expected a difference")
	}
	if !strings.Contains(d, "Y") {
		t.Fatalf("diff should name the changed field, got %q", d)
	}
}

func TestCaptureDetectsMutation(t *testing.T) {
	b := &box{Name: "n", P: &point{X: 1}, Counts: map[string]int{"a": 1}}
	before := Capture(b)
	b.P.X = 2
	after := Capture(b)
	if Equal(before, after) {
		t.Fatal("mutation through pointer must be detected")
	}
	b.P.X = 1
	restored := Capture(b)
	if !Equal(before, restored) {
		t.Fatalf("reverting the mutation must restore equality: %s", Diff(before, restored))
	}
}

func TestCaptureAliasingStructure(t *testing.T) {
	shared := &point{X: 1}
	aliased := struct{ A, B *point }{A: shared, B: shared}
	distinct := struct{ A, B *point }{A: &point{X: 1}, B: &point{X: 1}}

	// Definition 1: two pointers to the same object share one child node;
	// pointers to equal but distinct objects do not.
	if Equal(Capture(&aliased), Capture(&distinct)) {
		t.Fatal("aliased and unaliased graphs must differ")
	}
	aliased2 := struct{ A, B *point }{}
	p := &point{X: 1}
	aliased2.A, aliased2.B = p, p
	if !Equal(Capture(&aliased), Capture(&aliased2)) {
		t.Fatal("two graphs with the same aliasing structure must be equal")
	}
}

// TestCaptureSliceViewsByLength: two views of one array with the same
// length are one reference even when their capacities differ, so the
// second is a backref to the first. A slice's alias key is its address,
// type and length; the capacity is not compared.
func TestCaptureSliceViewsByLength(t *testing.T) {
	arr := []int{1, 2, 3, 4}
	views := struct{ Wide, Narrow []int }{Wide: arr[:2], Narrow: arr[:2:2]}
	fields := Capture(&views).Roots()[0].Children[0].Children
	wide, narrow := fields[0], fields[1]
	if wide.Backref || !narrow.Backref || narrow.Ref != wide.Ref {
		t.Fatalf("views of cap 4 and 2: Wide ref %d/%v, Narrow ref %d/%v; want Narrow a backref to Wide",
			wide.Ref, wide.Backref, narrow.Ref, narrow.Backref)
	}
}

func TestCaptureCycles(t *testing.T) {
	ring := func(vals ...int) *node {
		head := &node{Value: vals[0]}
		cur := head
		for _, v := range vals[1:] {
			cur.Next = &node{Value: v}
			cur = cur.Next
		}
		cur.Next = head
		return head
	}
	a := ring(1, 2, 3)
	b := ring(1, 2, 3)
	if !Equal(Capture(a), Capture(b)) {
		t.Fatal("identical rings must be equal")
	}
	c := ring(1, 2, 4)
	if Equal(Capture(a), Capture(c)) {
		t.Fatal("rings with different values must differ")
	}
	// Self-loop vs two-cycle.
	self := &node{Value: 1}
	self.Next = self
	two := &node{Value: 1, Next: &node{Value: 1}}
	two.Next.Next = two
	if Equal(Capture(self), Capture(two)) {
		t.Fatal("self-loop and 2-cycle must differ")
	}
}

func TestCaptureMapsDeterministic(t *testing.T) {
	a := map[string]int{"x": 1, "y": 2, "z": 3}
	b := map[string]int{"z": 3, "x": 1, "y": 2}
	for i := 0; i < 50; i++ {
		if !Equal(Capture(a), Capture(b)) {
			t.Fatal("map encoding must not depend on iteration order")
		}
	}
	c := map[string]int{"x": 1, "y": 2, "z": 4}
	if Equal(Capture(a), Capture(c)) {
		t.Fatal("changed map value must be detected")
	}
	d := map[string]int{"x": 1, "y": 2}
	if Equal(Capture(a), Capture(d)) {
		t.Fatal("removed map key must be detected")
	}
}

func TestCaptureMapPointerKeysByContent(t *testing.T) {
	k1, k2 := &point{X: 1}, &point{X: 2}
	a := map[*point]string{k1: "one", k2: "two"}
	// Distinct pointers with the same contents: graphs are isomorphic.
	b := map[*point]string{{X: 1}: "one", {X: 2}: "two"}
	if !Equal(Capture(a), Capture(b)) {
		t.Fatal("pointer-keyed maps must compare by content, not address")
	}
}

func TestCaptureSlices(t *testing.T) {
	a := &box{Tags: []string{"a", "b"}}
	b := &box{Tags: []string{"a", "b"}}
	if !Equal(Capture(a), Capture(b)) {
		t.Fatal("equal slices must be equal")
	}
	c := &box{Tags: []string{"a", "b", "c"}}
	if Equal(Capture(a), Capture(c)) {
		t.Fatal("appended slice must be detected")
	}
	var nilBox box
	empty := &box{Tags: []string{}}
	if Equal(Capture(&nilBox), Capture(empty)) {
		t.Fatal("nil slice and empty slice differ structurally")
	}
}

func TestCaptureInterfaceField(t *testing.T) {
	a := &box{Any: &point{X: 5}}
	b := &box{Any: &point{X: 5}}
	if !Equal(Capture(a), Capture(b)) {
		t.Fatal("equal dynamic values must be equal")
	}
	c := &box{Any: &point{X: 6}}
	if Equal(Capture(a), Capture(c)) {
		t.Fatal("dynamic value change must be detected")
	}
	d := &box{Any: point{X: 5}}
	if Equal(Capture(a), Capture(d)) {
		t.Fatal("pointer vs value dynamic type must differ")
	}
}

type hidden struct {
	Visible int
	secret  int
}

func TestCaptureReadsUnexportedFields(t *testing.T) {
	a := &hidden{Visible: 1, secret: 2}
	b := &hidden{Visible: 1, secret: 3}
	if Equal(Capture(a), Capture(b)) {
		t.Fatal("unexported field differences must be detected")
	}
	c := &hidden{Visible: 1, secret: 2}
	if !Equal(Capture(a), Capture(c)) {
		t.Fatal("equal unexported fields must compare equal")
	}
}

func TestCaptureChanIdentity(t *testing.T) {
	ch1 := make(chan int)
	ch2 := make(chan int)
	type holder struct{ C chan int }
	a := &holder{C: ch1}
	before := Capture(a)
	if !Equal(before, Capture(a)) {
		t.Fatal("same channel must compare equal to itself")
	}
	a.C = ch2
	if Equal(before, Capture(a)) {
		t.Fatal("channel replacement must be detected")
	}
}

func TestCaptureMultipleRoots(t *testing.T) {
	p := &point{X: 1}
	q := &point{X: 2}
	g1 := Capture(p, q)
	g2 := Capture(p, q)
	if !Equal(g1, g2) {
		t.Fatal("same roots must be equal")
	}
	q.X = 3
	if Equal(g1, Capture(p, q)) {
		t.Fatal("mutation of second root must be detected")
	}
	if len(g1.Roots()) != 2 {
		t.Fatalf("expected 2 roots, got %d", len(g1.Roots()))
	}
}

func TestCaptureAliasingAcrossRoots(t *testing.T) {
	shared := &point{X: 1}
	g1 := Capture(shared, shared)
	g2 := Capture(&point{X: 1}, &point{X: 1})
	if Equal(g1, g2) {
		t.Fatal("aliasing across roots must be part of the graph")
	}
}

func TestGraphStats(t *testing.T) {
	g := Capture(&box{Name: "hello", Tags: []string{"a", "b"}})
	if g.Nodes() == 0 {
		t.Fatal("expected nonzero node count")
	}
	if g.Bytes() < len("hello")+2 {
		t.Fatalf("byte accounting too small: %d", g.Bytes())
	}
}

func TestDiffPathNamesFields(t *testing.T) {
	a := &node{Value: 1, Next: &node{Value: 2}}
	b := &node{Value: 1, Next: &node{Value: 3}}
	d := Diff(Capture(a), Capture(b))
	if !strings.Contains(d, "Next") || !strings.Contains(d, "Value") {
		t.Fatalf("diff path should walk Next.Value, got %q", d)
	}
}

func TestDiffEmptyForEqualGraphs(t *testing.T) {
	a := &box{Name: "x", Counts: map[string]int{"k": 1}}
	if d := Diff(Capture(a), Capture(a)); d != "" {
		t.Fatalf("expected empty diff, got %q", d)
	}
}

func TestDiffNilGraphs(t *testing.T) {
	if d := Diff(nil, nil); d != "" {
		t.Fatalf("nil,nil should be equal, got %q", d)
	}
	if d := Diff(nil, Capture(1)); d == "" {
		t.Fatal("nil vs non-nil must differ")
	}
}
