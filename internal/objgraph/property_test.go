package objgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randTree is a randomly generated object graph used by the property tests.
type randTree struct {
	Value    int
	Name     string
	Flags    []bool
	Index    map[string]int
	Children []*randTree
	Link     *randTree // may alias an ancestor (cycle) or sibling
}

// genTree builds a pseudo-random tree of bounded size, sometimes with
// aliases and cycles.
func genTree(r *rand.Rand, depth int, pool *[]*randTree) *randTree {
	t := &randTree{
		Value: r.Intn(100),
		Name:  string(rune('a' + r.Intn(26))),
	}
	*pool = append(*pool, t)
	for i := 0; i < r.Intn(3); i++ {
		t.Flags = append(t.Flags, r.Intn(2) == 0)
	}
	if r.Intn(2) == 0 {
		t.Index = map[string]int{"k1": r.Intn(10), "k2": r.Intn(10)}
	}
	if depth > 0 {
		for i := 0; i < r.Intn(3); i++ {
			t.Children = append(t.Children, genTree(r, depth-1, pool))
		}
	}
	if len(*pool) > 1 && r.Intn(3) == 0 {
		t.Link = (*pool)[r.Intn(len(*pool))] // alias, possibly cyclic
	}
	return t
}

func TestQuickCaptureIsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		tree := genTree(r, 4, &pool)
		return Equal(Capture(tree), Capture(tree))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMutationIsDetectedAndRevertible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		tree := genTree(r, 4, &pool)
		before := Capture(tree)

		// Mutate a random node's scalar.
		victim := pool[r.Intn(len(pool))]
		old := victim.Value
		victim.Value = old + 1
		if Equal(before, Capture(tree)) {
			// The victim may be unreachable only if it isn't in the tree;
			// every pool node is reachable by construction, so a missed
			// mutation is a failure.
			return false
		}
		victim.Value = old
		return Equal(before, Capture(tree))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStructuralMutations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		tree := genTree(r, 3, &pool)
		before := Capture(tree)

		switch r.Intn(4) {
		case 0: // grow a child
			tree.Children = append(tree.Children, &randTree{Value: -1})
		case 1: // add a map entry
			if tree.Index == nil {
				tree.Index = map[string]int{}
			}
			tree.Index["new"] = 1
		case 2: // retarget the link
			tree.Link = &randTree{Value: -2}
		case 3: // append a flag
			tree.Flags = append(tree.Flags, true)
		}
		return !Equal(before, Capture(tree))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeySigTotalOrderStable(t *testing.T) {
	// Capturing the same map many times must always produce the same
	// encoding regardless of Go's randomized map iteration.
	m := map[int]string{}
	for i := 0; i < 64; i++ {
		m[i] = string(rune('a' + i%26))
	}
	base := Capture(m)
	for i := 0; i < 100; i++ {
		if !Equal(base, Capture(m)) {
			t.Fatal("map capture must be order-independent")
		}
	}
}

// TestRecycledCaptureMatchesFresh pins Scratch's free list: a capture
// drawn from the nodes of unrelated released graphs is indistinguishable
// from a fresh Capture, and a released node keeps no string. The roots
// cover maps, aliases and backrefs (fzNode cycles and shared slices),
// byte slices behind exported and unexported fields, interfaces and nil
// roots.
func TestRecycledCaptureMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	randomRoots := func() []any {
		g := &fzGraph{nodes: []*fzNode{{}}, data: make([]byte, 8+r.Intn(160))}
		r.Read(g.data)
		for len(g.data) > 0 {
			g.op()
		}
		roots := []any{g.nodes[0], g.nodes[len(g.nodes)-1]}
		switch r.Intn(3) {
		case 0:
			roots = append(roots, nil)
		case 1:
			var pool []*randTree
			roots = append(roots, genTree(r, 3, &pool))
		}
		return roots
	}
	var s Scratch
	for i := 0; i < 300; i++ {
		for k := r.Intn(3); k >= 0; k-- {
			s.Release(s.Capture(randomRoots()...))
		}
		assertReleased(t, &s)
		roots := randomRoots()
		free := len(s.free.nodes)
		got, want := s.Capture(roots...), Capture(roots...)
		if !Equal(got, want) {
			t.Fatalf("recycled capture differs from fresh: %s", Diff(got, want))
		}
		if d := Diff(want, got); d != "" {
			t.Fatalf("fresh capture differs from recycled: %s", d)
		}
		if got.Nodes() != want.Nodes() || got.Bytes() != want.Bytes() {
			t.Fatalf("recycled capture has %d nodes, %d bytes; fresh %d, %d",
				got.Nodes(), got.Bytes(), want.Nodes(), want.Bytes())
		}
		if left := max(0, free-want.Nodes()); len(s.free.nodes) != left {
			t.Fatalf("free list went %d -> %d nodes over a %d-node capture, want %d",
				free, len(s.free.nodes), want.Nodes(), left)
		}
		if i%2 == 0 {
			free = len(s.free.nodes)
			s.Release(got)
			if len(s.free.nodes) != free+want.Nodes() {
				t.Fatalf("releasing a %d-node graph took the free list %d -> %d nodes",
					want.Nodes(), free, len(s.free.nodes))
			}
		}
	}
}

// assertReleased checks that every graph and node on s's free list is
// zero, apart from the capacity of its slices, whose elements are nil.
func assertReleased(t *testing.T, s *Scratch) {
	t.Helper()
	for _, g := range s.free.graphs {
		if len(g.roots) != 0 || g.nodes != 0 || g.bytes != 0 {
			t.Fatalf("released graph not empty: %+v", *g)
		}
		for _, n := range g.roots[:cap(g.roots)] {
			if n != nil {
				t.Fatal("released graph still points at a root")
			}
		}
	}
	for _, n := range s.free.nodes {
		if n.Type != "" || n.Label != "" || n.Str != "" {
			t.Fatalf("released node holds strings: type %q, label %q, str %q", n.Type, n.Label, n.Str)
		}
		if n.Kind != 0 || n.Bits != 0 || n.Ref != 0 || n.Backref || len(n.Children) != 0 {
			t.Fatalf("released node not zero: %+v", *n)
		}
		for _, c := range n.Children[:cap(n.Children)] {
			if c != nil {
				t.Fatal("released node still points at a child")
			}
		}
	}
}

// TestScratchFreeListCapped: a Scratch keeps at most maxFreeNodes
// released nodes (plus the last graph that crossed the cap); graphs
// released past it are left to the collector, and later captures still
// draw from what was kept.
func TestScratchFreeListCapped(t *testing.T) {
	type chain struct {
		Next *chain
		V    [4]int
	}
	var root *chain
	for i := 0; i < 1000; i++ {
		root = &chain{Next: root, V: [4]int{i}}
	}
	var s Scratch
	per := Capture(root).Nodes()
	for i := 0; i <= maxFreeNodes/per+2; i++ {
		s.Release(s.Capture(root))
		s.Release(Capture(root))
	}
	if n := len(s.free.nodes); n < maxFreeNodes || n >= maxFreeNodes+per {
		t.Fatalf("free list holds %d nodes after releasing %d-node graphs past the cap, want [%d, %d)", n, per, maxFreeNodes, maxFreeNodes+per)
	}
	if !Equal(s.Capture(root), Capture(root)) {
		t.Fatal("a capture from the capped free list differs from a fresh one")
	}
}
