package checkpoint

import (
	"reflect"
	"testing"

	"failatomic/internal/objgraph"
)

// fzNode is the graph FuzzCaptureRestore builds: pointers and aliases,
// a map, an interface, and slices that may be views of one another.
type fzNode struct {
	ID   int
	Next *fzNode
	Kids []*fzNode
	M    map[int]*fzNode
	Any  any
	Ints []int
	View []int
}

// fzGraph decodes fuzz input into graph-building and mutation ops.
type fzGraph struct {
	nodes []*fzNode
	data  []byte
}

func (g *fzGraph) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

func (g *fzGraph) node() *fzNode { return g.nodes[g.next()%len(g.nodes)] }

// op applies one decoded op. Building and mutating share the op set, so
// any input is a valid program.
func (g *fzGraph) op() {
	n := g.node()
	switch g.next() % 10 {
	case 0:
		g.nodes = append(g.nodes, &fzNode{ID: len(g.nodes)})
	case 1:
		n.Next = g.node()
	case 2:
		n.Kids = append(n.Kids, g.node())
	case 3:
		if n.M == nil {
			n.M = map[int]*fzNode{}
		}
		n.M[g.next()%4] = g.node()
	case 4:
		switch g.next() % 4 {
		case 0:
			n.Any = nil
		case 1:
			n.Any = g.next()
		case 2:
			n.Any = g.node()
		case 3:
			n.Any = fzNode{ID: -1, Ints: []int{g.next()}}
		}
	case 5:
		l := g.next() % 5
		n.Ints = make([]int, l, l+g.next()%5)
		for i := range n.Ints {
			n.Ints[i] = g.next()
		}
	case 6:
		// A view of some node's Ints with its own length and capacity.
		src := g.node().Ints
		c := g.next() % (cap(src) + 1)
		l := g.next() % (c + 1)
		n.View = src[:l:c]
	case 7:
		if len(n.Ints) > 0 {
			n.Ints[g.next()%len(n.Ints)] = -g.next()
		}
	case 8:
		n.View = append(n.View, g.next())
	case 9:
		n.ID = -n.ID - 1
	}
}

// reachable returns the nodes reachable from the root: the nodes a
// checkpoint of the root covers.
func (g *fzGraph) reachable() []*fzNode {
	seen := map[*fzNode]bool{}
	var walk func(n *fzNode)
	walk = func(n *fzNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		walk(n.Next)
		for _, k := range n.Kids {
			walk(k)
		}
		for _, v := range n.M {
			walk(v)
		}
		if a, ok := n.Any.(*fzNode); ok {
			walk(a)
		}
	}
	walk(g.nodes[0])
	var out []*fzNode
	for _, n := range g.nodes {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// headers records the slice headers of the given nodes.
func headers(nodes []*fzNode) [][3]uintptr {
	var out [][3]uintptr
	for _, n := range nodes {
		for _, s := range []reflect.Value{reflect.ValueOf(n.Kids), reflect.ValueOf(n.Ints), reflect.ValueOf(n.View)} {
			out = append(out, [3]uintptr{s.Pointer(), uintptr(s.Len()), uintptr(s.Cap())})
		}
	}
	return out
}

// FuzzCaptureRestore builds a graph from the first half of the input,
// captures it, applies the second half as mutations, and restores: the
// graph and every slice header of the nodes it reached must be back exactly.
func FuzzCaptureRestore(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 5, 3, 4, 1, 2, 3, 6, 1, 0, 3, 1, 7, 0, 1, 1, 8, 5, 9, 2, 2})
	f.Add([]byte{0, 5, 0, 0, 8, 2, 0, 6, 0, 9, 8, 1, 0, 6, 1, 3, 2, 0, 4, 2, 1, 7, 2, 3})
	f.Add([]byte{0, 3, 1, 0, 4, 2, 0, 2, 0, 1, 1, 0, 4, 3, 0, 9, 0, 2, 1, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		g := &fzGraph{nodes: []*fzNode{{}}, data: data[:half]}
		for len(g.data) > 0 {
			g.op()
		}
		root, live := g.nodes[0], g.reachable()
		before := objgraph.Capture(root)
		want := headers(live)
		s := New()
		// An earlier committed capture leaves slabs and spares behind for
		// the checked one to reuse.
		warm, err := s.Capture(root)
		if err != nil {
			t.Fatal(err)
		}
		warm.(Committer).Commit()
		h, err := s.Capture(root)
		if err != nil {
			t.Fatal(err)
		}
		g.data = data[half:]
		for len(g.data) > 0 {
			g.op()
		}
		if err := h.Rollback(); err != nil {
			t.Fatal(err)
		}
		if !objgraph.Equal(before, objgraph.Capture(root)) {
			t.Fatalf("graph differs after restore: %s", objgraph.Diff(before, objgraph.Capture(root)))
		}
		if got := headers(live); !reflect.DeepEqual(got, want) {
			t.Fatalf("slice headers differ after restore:\n got %v\nwant %v", got, want)
		}
	})
}
