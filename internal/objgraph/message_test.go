package objgraph

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestDiffMessagesMatchFmt pins every diff message objgraph builds with
// strconv appends to the fmt.Sprintf rendering it replaced, byte for
// byte: each headDiff branch (with labels and strings that %q must
// escape), both root-count messages and the opaque-node payload.
func TestDiffMessagesMatchFmt(t *testing.T) {
	const path = "recv.*.items[3].k\"ey\n"
	node := func(n Node) *Node { return &n }
	// stack holds the path the walker spells: a root, a field, an element
	// and a map entry whose label needs quoting nowhere but in the path.
	stack := []*Node{{Label: "recv"}, {Label: "*"}, {Label: "items"}, {Label: "[3]"}, {Label: "k\"ey\n"}}
	cases := []struct {
		name  string
		a, b  *Node
		nkids int
		want  string
	}{
		{"kind", node(Node{Kind: KindInt}), node(Node{Kind: KindString}), 0,
			fmt.Sprintf("%s: kind %s != %s", path, KindInt, KindString)},
		{"type", node(Node{Kind: KindStruct, Type: "main.T"}), node(Node{Kind: KindStruct, Type: "main.U"}), 0,
			fmt.Sprintf("%s: type %s != %s", path, "main.T", "main.U")},
		{"label", node(Node{Kind: KindEntry, Label: "a\tb\"\x00é"}), node(Node{Kind: KindEntry, Label: "\u2028\\"}), 0,
			fmt.Sprintf("%s: label %q != %q", path, "a\tb\"\x00é", "\u2028\\")},
		{"ref", node(Node{Kind: KindPointer, Ref: 3}), node(Node{Kind: KindPointer, Ref: 12, Backref: true}), 0,
			fmt.Sprintf("%s: aliasing changed (ref %d/%v != %d/%v)", path, 3, false, 12, true)},
		{"bool", node(Node{Kind: KindBool, Bits: 1}), node(Node{Kind: KindBool}), 0,
			fmt.Sprintf("%s: %s %s != %s", path, KindBool, "true", "false")},
		{"int", node(Node{Kind: KindInt, Bits: uint64(1<<64 - 5)}), node(Node{Kind: KindInt, Bits: 7}), 0,
			fmt.Sprintf("%s: %s %d != %d", path, KindInt, -5, 7)},
		{"float", node(Node{Kind: KindFloat, Bits: math.Float64bits(1e21)}), node(Node{Kind: KindFloat, Bits: math.Float64bits(-0.125)}), 0,
			fmt.Sprintf("%s: %s %s != %s", path, KindFloat, "1e+21", "-0.125")},
		{"uint", node(Node{Kind: KindChan, Bits: 1<<64 - 1}), node(Node{Kind: KindChan, Bits: 2}), 0,
			fmt.Sprintf("%s: %s %d != %d", path, KindChan, uint64(1<<64-1), 2)},
		{"str", node(Node{Kind: KindString, Str: "x\ny\"\xff"}), node(Node{Kind: KindString, Str: ""}), 0,
			fmt.Sprintf("%s: %s %q != %q", path, KindString, "x\ny\"\xff", "")},
		{"complex", node(Node{Kind: KindComplex, Str: "(1+2i)"}), node(Node{Kind: KindComplex, Str: "(1-2i)"}), 0,
			fmt.Sprintf("%s: %s %q != %q", path, KindComplex, "(1+2i)", "(1-2i)")},
		{"children", node(Node{Kind: KindSlice, Children: make([]*Node, 2)}), node(Node{Kind: KindSlice}), 10,
			fmt.Sprintf("%s: child count %d != %d", path, 2, 10)},
		{"equal", node(Node{Kind: KindInt, Bits: 4}), node(Node{Kind: KindInt, Bits: 4}), 0, ""},
	}
	for _, c := range cases {
		w := &walker{stack: stack}
		if got := w.headDiff(c.a, c.b, c.nkids); got != c.want {
			t.Errorf("%s: headDiff = %q, want %q", c.name, got, c.want)
		}
	}

	roots := func(n int) *Graph { return &Graph{roots: make([]*Node, n)} }
	if got, want := Diff(roots(1), roots(12)), fmt.Sprintf("root count %d != %d", 1, 12); got != want {
		t.Errorf("Diff root count = %q, want %q", got, want)
	}
	if got, want := DiffLive(roots(3), 1, 2), fmt.Sprintf("root count %d != %d", 3, 2); got != want {
		t.Errorf("DiffLive root count = %q, want %q", got, want)
	}
	for _, k := range []reflect.Kind{reflect.UnsafePointer, reflect.Invalid, reflect.Kind(200)} {
		if got, want := k.String()+"-opaque", fmt.Sprintf("%v-opaque", k); got != want {
			t.Errorf("opaque payload = %q, want %q", got, want)
		}
	}
}
