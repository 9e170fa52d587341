package objgraph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// checkDiffLive asserts DiffLive(before, roots...) is exactly
// Diff(before, Capture(roots...)) and returns it.
func checkDiffLive(t *testing.T, before *Graph, roots ...any) string {
	t.Helper()
	want := Diff(before, Capture(roots...))
	if got := DiffLive(before, roots...); got != want {
		t.Fatalf("DiffLive = %q, want Diff(Capture) = %q", got, want)
	}
	return want
}

// TestQuickDiffLiveMatchesCapture: on the randomized graphs of the
// fingerprint property (cycles, aliasing, maps, slices), DiffLive reports
// exactly what Diff of a fresh capture reports — before a random
// mutation, after it and after undoing it — for one root and for two
// roots sharing structure.
func TestQuickDiffLiveMatchesCapture(t *testing.T) {
	same := func(before *Graph, roots ...any) bool {
		return DiffLive(before, roots...) == Diff(before, Capture(roots...))
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		a := genTree(r, 4, &pool)
		b := genTree(r, 2, &pool)
		b.Link = a
		one, two := Capture(a), Capture(a, b)
		if DiffLive(one, a) != "" || DiffLive(two, a, b) != "" {
			return false
		}
		undo := mutateTree(r, a, pool)
		if !same(one, a) || !same(two, a, b) || !same(one, b) || !same(two, b, a) {
			return false
		}
		undo()
		return same(one, a) && same(two, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffLiveMutationSequences walks the fingerprint mutation sequences
// (framed payload lists, a search tree, a blob) and checks DiffLive
// against a fresh capture at every step.
func TestDiffLiveMutationSequences(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	for _, root := range []any{genList(r, 16), genBST(r, 64), genFlat(r, 8192)} {
		base := Capture(root)
		for step := 0; step < 40; step++ {
			mutateGraph(r, root)
			if checkDiffLive(t, base, root) == "" {
				t.Fatalf("%T step %d: mutation not detected", root, step)
			}
		}
	}
}

// TestDiffLiveCases pins DiffLive to Diff of a fresh capture on the
// shapes its traversal special-cases, each with the message expected.
func TestDiffLiveCases(t *testing.T) {
	type blob struct {
		Visible int
		data    []byte
	}
	type cplx struct{ C complex128 }
	type keyed struct{ M map[*point]string }

	cyc := &node{Value: 1}
	cyc.Next = &node{Value: 2, Next: cyc}
	shared := &point{X: 1}
	holder := &box{P: shared}
	keyA, keyB := &point{X: 1}, &point{X: 2}
	km := &keyed{M: map[*point]string{keyA: "a", keyB: "b"}}
	hidden := &blob{Visible: 1, data: []byte("abc")}
	nan := &cplx{C: complex(math.NaN(), 1)}
	long := make([]int, 1000)

	cases := []struct {
		name   string
		before *Graph
		roots  func() []any
		want   string
	}{
		{"cycle equal", Capture(cyc), func() []any { return []any{cyc} }, ""},
		{"cycle cut", Capture(cyc), func() []any {
			cyc.Next.Next = &node{Value: 1}
			return []any{cyc}
		}, "recv.*.Next.*.Next: aliasing changed (ref 1/true != 3/false)"},
		{"alias across roots", Capture(holder, shared), func() []any { return []any{holder, shared} }, ""},
		{"alias across roots broken", Capture(holder, shared), func() []any {
			return []any{holder, &point{X: 1}}
		}, "arg1: aliasing changed (ref 2/true != 3/false)"},
		{"pointer keys by content", Capture(km), func() []any { return []any{km} }, ""},
		{"pointer key content", Capture(km), func() []any {
			keyA.Y = 5
			return []any{km}
		}, `recv.*.M.p*t{X=i1,Y=i0,}: label "p*t{X=i1,Y=i0,}" != "p*t{X=i1,Y=i5,}"`},
		{"unexported bytes", Capture(hidden), func() []any {
			hidden.data[2] = 'd'
			return []any{hidden}
		}, `recv.*.data: slice "abc" != "abd"`},
		{"complex NaN payloads", Capture(nan), func() []any {
			return []any{&cplx{C: complex(math.Float64frombits(math.Float64bits(math.NaN())^1), 1)}}
		}, ""},
		{"complex NaN to number", Capture(nan), func() []any {
			return []any{&cplx{C: complex(0, 1)}}
		}, `recv.*.C: complex "(NaN+1i)" != "(0+1i)"`},
		{"index past the interned labels", Capture(long), func() []any {
			long[200] = 1
			return []any{long}
		}, "recv[200]: int 0 != 1"},
		{"nil roots", Capture(nil, 3), func() []any { return []any{nil, 3} }, ""},
		{"nil root set", Capture(nil, 3), func() []any { return []any{4, 3} }, "recv: kind nil != int"},
		{"root count", Capture(1, 2), func() []any { return []any{1} }, "root count 2 != 1"},
		{"nil graph", nil, func() []any { return []any{1} }, "one graph is nil"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDiffLive(t, tc.before, tc.roots()...); got != tc.want {
				t.Fatalf("diff = %q, want %q", got, tc.want)
			}
		})
	}
}

// eagerDiff is Diff as it spelled paths before paths became lazy: every
// descent concatenates the child's path. It is the reference the lazy
// path builder must match byte for byte.
func eagerDiff(a, b *Graph) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return "one graph is nil"
	}
	if len(a.roots) != len(b.roots) {
		return fmt.Sprintf("root count %d != %d", len(a.roots), len(b.roots))
	}
	for i := range a.roots {
		if d := eagerDiffNode(a.roots[i], b.roots[i], a.roots[i].Label); d != "" {
			return d
		}
	}
	return ""
}

// formatBits renders a node's scalar payload as the fmt-era headDiff did.
func formatBits(n *Node) string {
	switch n.Kind {
	case KindBool:
		return strconv.FormatBool(n.Bits == 1)
	case KindInt:
		return strconv.FormatInt(int64(n.Bits), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(n.Bits), 'g', -1, 64)
	default:
		return strconv.FormatUint(n.Bits, 10)
	}
}

func eagerDiffNode(a, b *Node, path string) string {
	switch {
	case a.Kind != b.Kind:
		return fmt.Sprintf("%s: kind %s != %s", path, a.Kind, b.Kind)
	case a.Type != b.Type:
		return fmt.Sprintf("%s: type %s != %s", path, a.Type, b.Type)
	case a.Label != b.Label:
		return fmt.Sprintf("%s: label %q != %q", path, a.Label, b.Label)
	case a.Ref != b.Ref || a.Backref != b.Backref:
		return fmt.Sprintf("%s: aliasing changed (ref %d/%v != %d/%v)",
			path, a.Ref, a.Backref, b.Ref, b.Backref)
	case a.Bits != b.Bits:
		return fmt.Sprintf("%s: %s %s != %s", path, a.Kind, formatBits(a), formatBits(b))
	case a.Str != b.Str:
		return fmt.Sprintf("%s: %s %q != %q", path, a.Kind, a.Str, b.Str)
	case len(a.Children) != len(b.Children):
		return fmt.Sprintf("%s: child count %d != %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		ca, cb := a.Children[i], b.Children[i]
		childPath := path
		if ca.Label != "" {
			if ca.Label[0] == '[' {
				childPath += ca.Label
			} else {
				childPath += "." + ca.Label
			}
		}
		if d := eagerDiffNode(ca, cb, childPath); d != "" {
			return d
		}
	}
	return ""
}

// TestDiffLazyPathMatchesEager: Diff's path, built once from the node
// stack, is the one per-descent concatenation built, on random mutations
// of random graphs (every mutation class reports at a different depth).
func TestDiffLazyPathMatchesEager(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		tree := genTree(r, 4, &pool)
		before := Capture(tree)
		mutateTree(r, tree, pool)
		after := Capture(tree)
		d := Diff(before, after)
		return d == eagerDiff(before, after) && Diff(after, before) == eagerDiff(after, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffLiveConcurrent diffs one shared graph against shared live
// values from several goroutines, interleaved with Fingerprint and
// Capture, as campaign workers read the clean run's graphs: each call
// takes its own pooled walker, so no traversal state may leak between
// them.
func TestDiffLiveConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	live, other := genList(r, 32), genList(r, 32)
	before := Capture(live)
	want := Diff(before, Capture(other))
	fp := Fingerprint(live)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if d := DiffLive(before, live); d != "" {
					t.Errorf("worker %d: equal graph diffed %q", w, d)
					return
				}
				if d := DiffLive(before, other); d != want {
					t.Errorf("worker %d: DiffLive = %q, want %q", w, d, want)
					return
				}
				if Fingerprint(live) != fp || Capture(live).Nodes() != before.Nodes() {
					t.Errorf("worker %d: traversal state leaked between calls", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// leastAllocs returns the allocations one call of f makes once warm: the
// least over a few windows of calls (like the root package's steadyCost),
// so an allocation made outside f now and then, such as a GC emptying the
// walker pool, does not count against f.
func leastAllocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const windows, runs = 5, 200
	f()
	least := math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/runs)
	}
	return least
}

// TestDiffLiveAllocs: on equal graphs of the shapes wrapped receivers
// have (structs, pointer chains with a cycle, slices of values and of
// pointers, exported and unexported byte slices, a slice longer than the
// interned "[i]" labels), DiffLive allocates nothing.
func TestDiffLiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	type elem struct {
		K    int
		Name string
		Next *elem
	}
	type recv struct {
		Words [8]uint64
		Elems []elem
		Ptrs  []*elem
		Data  []byte
		data  []byte
		Head  *elem
		Any   any
		Long  []int
	}
	rv := &recv{Data: make([]byte, 4096), data: []byte("unexported"), Any: 7, Long: make([]int, 1000)}
	for i := 0; i < 100; i++ {
		rv.Elems = append(rv.Elems, elem{K: i, Name: strings.Repeat("n", i%5)})
		rv.Ptrs = append(rv.Ptrs, &rv.Elems[i])
	}
	for i := 0; i < 32; i++ {
		rv.Head = &elem{K: i, Next: rv.Head}
	}
	rv.Head.Next.Next = rv.Head // a cycle
	before := Capture(rv)
	if d := DiffLive(before, rv); d != "" {
		t.Fatalf("equal graph reported %q", d)
	}
	if allocs := leastAllocs(func() { DiffLive(before, rv) }); allocs != 0 {
		t.Fatalf("DiffLive allocated %.2f allocs/op on an equal graph, want 0", allocs)
	}
}

// fzNode is the graph FuzzDiffLive builds: pointers with aliases and
// cycles, an int-keyed map, an interface, int slices that may be views of
// one another, byte slices behind exported and unexported fields, and the
// float and complex payloads whose NaNs Capture spells two ways.
type fzNode struct {
	ID   int
	Next *fzNode
	Kids []*fzNode
	M    map[int]*fzNode
	Any  any
	Ints []int
	View []int
	Blob []byte
	blob []byte
	F    float64
	C    complex128
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

// fzFloat decodes a float: small integers, zero or two NaNs.
func (g *fzGraph) fzFloat() float64 {
	switch x := g.next(); x % 4 {
	case 0:
		return math.NaN()
	case 1:
		return math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	default:
		return float64(x / 4)
	}
}

// op applies one decoded op. Building and mutating share the op set, so
// any input is a valid program.
func (g *fzGraph) op() {
	n := g.node()
	switch g.next() % 12 {
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
	case 10:
		switch g.next() % 3 {
		case 0:
			n.Blob = append(n.Blob, byte(g.next()))
		case 1:
			n.blob = append(n.blob, byte(g.next()))
		case 2:
			n.blob = g.node().Blob
		}
	case 11:
		n.F = g.fzFloat()
		n.C = complex(g.fzFloat(), g.fzFloat())
	}
}

// FuzzDiffLive builds a graph from the first half of the input and
// captures it with a second root, applies the second half as mutations,
// and checks that DiffLive reports exactly what Diff of a fresh capture
// reports, and a difference exactly when the fingerprint moved. A
// Scratch whose free list holds a released capture of the unmutated
// graph recaptures the mutated one: Diff from it and its DiffLive must
// report the same.
func FuzzDiffLive(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 5, 3, 4, 1, 2, 3, 6, 1, 0, 3, 1, 7, 0, 1, 1, 8, 5, 9, 2, 2})
	f.Add([]byte{0, 5, 0, 0, 8, 2, 0, 6, 0, 9, 8, 1, 0, 6, 1, 3, 2, 0, 4, 2, 1, 7, 2, 3})
	f.Add([]byte{0, 10, 0, 1, 0, 11, 4, 5, 2, 0, 0, 1, 1, 10, 1, 7, 0, 11, 1, 0, 0, 10, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		g := &fzGraph{nodes: []*fzNode{{}}, data: data[:half]}
		for len(g.data) > 0 {
			g.op()
		}
		roots := []any{g.nodes[0], g.nodes[len(g.nodes)-1]}
		before := Capture(roots...)
		fp := Fingerprint(roots...)
		if d := DiffLive(before, roots...); d != "" {
			t.Fatalf("unchanged graph: DiffLive = %q", d)
		}
		var s Scratch
		s.Release(s.Capture(roots...))
		g.data = data[half:]
		for len(g.data) > 0 {
			g.op()
		}
		want := Diff(before, Capture(roots...))
		if got := DiffLive(before, roots...); got != want {
			t.Fatalf("DiffLive = %q, want %q", got, want)
		}
		if got := Diff(before, s.Capture(roots...)); got != want {
			t.Fatalf("Diff from a recycled capture = %q, want %q", got, want)
		}
		if got := s.DiffLive(before, roots...); got != want {
			t.Fatalf("Scratch.DiffLive = %q, want %q", got, want)
		}
		if (want == "") != (Fingerprint(roots...) == fp) {
			t.Fatalf("diff %q but fingerprint equal = %v", want, Fingerprint(roots...) == fp)
		}
	})
}
