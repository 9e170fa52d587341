package objgraph

// Scratch is objgraph state a caller owns: a walker that its Fingerprint,
// Capture and DiffLive run on instead of a pooled one, and a free list of
// graphs and nodes that its Capture draws from and Release refills. It is
// not a sync.Pool: nothing in it is dropped by a collection, and it lives
// exactly as long as its owner keeps it. objgraph calls no user code, so a
// Scratch needs only its owner's discipline: one goroutine at a time. The
// zero value is ready to use.
type Scratch struct {
	w    walker
	free freeList
}

// Fingerprint is the package-level Fingerprint on s's walker.
func (s *Scratch) Fingerprint(roots ...any) FP {
	w := s.begin()
	fp := w.fingerprint(roots)
	w.drop()
	return fp
}

// Capture is the package-level Capture on s's walker; the graph and its
// nodes come from s's free list while it has any.
func (s *Scratch) Capture(roots ...any) *Graph {
	w := s.begin()
	g := w.capture(&s.free, roots)
	w.drop()
	return g
}

// DiffLive is the package-level DiffLive on s's walker.
func (s *Scratch) DiffLive(g *Graph, roots ...any) string {
	w := s.begin()
	d := w.diffLiveRoots(g, roots)
	w.drop()
	return d
}

// maxFreeNodes caps the nodes a Scratch's free list keeps: 65,536 nodes
// of 96 B, about 6 MiB plus their child slices. A campaign worker's
// Scratch outlives its campaign, and its free list would otherwise keep
// the largest clean run's captures for good (RegExp at Repeats 4 returns
// about 13,000 nodes).
const maxFreeNodes = 1 << 16

// Release hands g and its nodes to s's free list. The caller must hold
// the only reference to g and to every node read off it: g is emptied,
// and each node is zeroed, its strings dropped so that it keeps no
// workload memory alive, with only the capacity of its child slice kept.
// Once the list holds maxFreeNodes nodes, g is left to the collector
// instead. Releasing nil does nothing.
func (s *Scratch) Release(g *Graph) {
	if g == nil || len(s.free.nodes) >= maxFreeNodes {
		return
	}
	for _, n := range g.roots {
		s.free.putNode(n)
	}
	clear(g.roots)
	*g = Graph{roots: g.roots[:0]}
	s.free.graphs = append(s.free.graphs, g)
}

// begin returns s's walker with an empty alias table.
func (s *Scratch) begin() *walker {
	s.w.refs.Reset()
	return &s.w
}

// freeList holds released graphs and zeroed nodes for Capture to reuse,
// last released first.
type freeList struct {
	graphs []*Graph
	nodes  []*Node
}

// graph returns an empty graph with room for n roots: a released one, or
// a new one when f is nil or has none.
func (f *freeList) graph(n int) *Graph {
	if f == nil || len(f.graphs) == 0 {
		return &Graph{roots: make([]*Node, 0, n)}
	}
	last := len(f.graphs) - 1
	g := f.graphs[last]
	f.graphs[last] = nil
	f.graphs = f.graphs[:last]
	return g
}

// node returns a zero node, apart from the capacity of its child slice: a
// released one, or a new one when f is nil or has none.
func (f *freeList) node() *Node {
	if f == nil || len(f.nodes) == 0 {
		return new(Node)
	}
	last := len(f.nodes) - 1
	n := f.nodes[last]
	f.nodes[last] = nil
	f.nodes = f.nodes[:last]
	return n
}

// putNode zeroes n and its subtree and pushes them on the list. A
// captured graph is a tree (an alias is a backref node of its own), so
// each node is pushed once.
func (f *freeList) putNode(n *Node) {
	for _, c := range n.Children {
		f.putNode(c)
	}
	clear(n.Children)
	*n = Node{Children: n.Children[:0]}
	f.nodes = append(f.nodes, n)
}
