package checkpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"failatomic/internal/objgraph"
)

// mutTree is a random object graph whose every node can be mutated, used to
// property-test the checkpoint/restore round trip. Its fields cover each
// plan shape: flat structs, arrays and slices of structs, a bulk byte
// slice, an interface, a Snapshotter, and a second view of Scores' backing
// array with its own length and capacity.
type mutTree struct {
	Value    int
	Name     string
	Scores   []int
	Index    map[string]int
	Children []*mutTree
	Link     *mutTree
	Pos      mutPos
	Pairs    [2]mutPair
	Items    []mutPos
	Tagged   []mutPair
	Blob     []byte
	Any      any
	Snap     *snapType
	View     []int
}

// mutPos is flat: it copies with one assignment.
type mutPos struct {
	X, Y int32
	W    float64
}

// mutPair holds a string, so it is walked field by field.
type mutPair struct {
	K string
	V int
}

func genMutTree(r *rand.Rand, depth int, pool *[]*mutTree) *mutTree {
	t := &mutTree{
		Value: r.Intn(1000),
		Name:  string(rune('a' + r.Intn(26))),
		Pos:   mutPos{X: r.Int31n(100), Y: r.Int31n(100), W: r.Float64()},
		Pairs: [2]mutPair{{K: "p", V: r.Intn(9)}, {K: string(rune('A' + r.Intn(26))), V: r.Intn(9)}},
	}
	*pool = append(*pool, t)
	for i := 0; i < r.Intn(4); i++ {
		t.Scores = append(t.Scores, r.Intn(100))
	}
	if r.Intn(2) == 0 {
		t.Index = map[string]int{"a": r.Intn(10), "b": r.Intn(10)}
	}
	for i := 0; i < r.Intn(3); i++ {
		t.Items = append(t.Items, mutPos{X: int32(i), W: float64(r.Intn(5))})
		t.Tagged = append(t.Tagged, mutPair{K: t.Name, V: i})
	}
	if r.Intn(4) == 0 {
		size := 1<<10 + r.Intn(1<<10)
		if r.Intn(3) == 0 {
			size += minSlabBytes // a slab
		}
		t.Blob = make([]byte, size)
		r.Read(t.Blob)
	}
	if r.Intn(3) == 0 {
		t.Snap = &snapType{val: r.Intn(50), list: []int{r.Intn(5)}}
	}
	if n := len(t.Scores); n > 0 {
		// A view shorter than Scores: both engines clone it on its own,
		// so their byte counts stay comparable.
		k := r.Intn(n)
		c := k + r.Intn(cap(t.Scores)-k+1)
		t.View = t.Scores[:k:c]
	}
	if depth > 0 {
		for i := 0; i < r.Intn(3); i++ {
			t.Children = append(t.Children, genMutTree(r, depth-1, pool))
		}
	}
	if len(*pool) > 1 && r.Intn(3) == 0 {
		t.Link = (*pool)[r.Intn(len(*pool))]
	}
	switch r.Intn(5) {
	case 1:
		t.Any = r.Intn(7)
	case 2:
		t.Any = "any"
	case 3:
		t.Any = (*pool)[r.Intn(len(*pool))]
	case 4:
		t.Any = mutPair{K: "boxed", V: r.Intn(3)}
	}
	return t
}

// mutate applies a random destructive change somewhere in the graph.
func mutate(r *rand.Rand, pool []*mutTree) {
	v := pool[r.Intn(len(pool))]
	switch r.Intn(15) {
	case 0:
		v.Value += 1 + r.Intn(10)
	case 1:
		v.Name += "!"
	case 2:
		v.Scores = append(v.Scores, -1)
	case 3:
		if len(v.Scores) > 0 {
			v.Scores[r.Intn(len(v.Scores))] = -7
		} else {
			v.Scores = []int{-7}
		}
	case 4:
		if v.Index == nil {
			v.Index = map[string]int{}
		}
		v.Index["mut"] = 1
	case 5:
		v.Link = &mutTree{Value: -99}
	case 6:
		v.Children = nil
	case 7:
		v.Pos.Y = -v.Pos.Y - 1
	case 8:
		v.Pairs[r.Intn(2)].K += "?"
	case 9:
		if len(v.Items) > 0 {
			v.Items[0].W = -1
		}
		v.Tagged = append(v.Tagged, mutPair{K: "new"})
	case 10:
		if len(v.Blob) > 0 {
			v.Blob[r.Intn(len(v.Blob))]++
		} else {
			v.Blob = []byte{1}
		}
	case 11:
		v.Any = []int{1}
	case 12:
		if v.Snap != nil {
			v.Snap.val = -5
		}
	case 13:
		// May write into Scores' backing array past the view's length.
		v.View = append(v.View, -3)
	case 14:
		v.Scores = nil
		v.View = v.View[:0]
	}
}

// reachable returns the nodes reachable from root, in pool order: the
// nodes a checkpoint of root covers.
func reachable(root *mutTree, pool []*mutTree) []*mutTree {
	seen := map[*mutTree]bool{}
	var walk func(n *mutTree)
	walk = func(n *mutTree) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.Children {
			walk(c)
		}
		walk(n.Link)
		if a, ok := n.Any.(*mutTree); ok {
			walk(a)
		}
	}
	walk(root)
	var out []*mutTree
	for _, n := range pool {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// sliceHeaders records the data pointer, length and capacity of every
// slice field of every node, for exact round-trip checks.
func sliceHeaders(pool []*mutTree) []string {
	var out []string
	for i, n := range pool {
		v := reflect.ValueOf(n).Elem()
		for f := 0; f < v.NumField(); f++ {
			if s := v.Field(f); s.Kind() == reflect.Slice {
				out = append(out, fmt.Sprintf("%d.%s=%#x/%d/%d", i, v.Type().Field(f).Name, s.Pointer(), s.Len(), s.Cap()))
			}
		}
	}
	return out
}

func TestQuickCaptureRestoreRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*mutTree
		tree := genMutTree(r, 3, &pool)
		before := objgraph.Capture(tree)
		headers := sliceHeaders(pool)
		ref, err := refCapture(tree)
		if err != nil {
			t.Logf("reference capture failed: %v", err)
			return false
		}
		cp, err := New().Capture(tree)
		if err != nil {
			t.Logf("capture failed: %v", err)
			return false
		}
		if cp.Bytes() != ref.Bytes() {
			t.Logf("seed %d: Bytes %d, reference engine %d", seed, cp.Bytes(), ref.Bytes())
			return false
		}
		for i := 0; i < 1+r.Intn(5); i++ {
			mutate(r, pool)
		}
		if err := cp.Rollback(); err != nil {
			t.Logf("restore failed: %v", err)
			return false
		}
		if d := objgraph.Diff(before, objgraph.Capture(tree)); d != "" {
			t.Logf("seed %d: graph differs after restore: %s", seed, d)
			return false
		}
		if got := sliceHeaders(pool); !reflect.DeepEqual(got, headers) {
			t.Logf("seed %d: slice headers differ after restore:\n%v\n%v", seed, got, headers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRestoreIsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*mutTree
		tree := genMutTree(r, 2, &pool)
		before := objgraph.Capture(tree)
		cp, err := Capture(tree)
		if err != nil {
			return false
		}
		mutate(r, pool)
		if err := cp.Restore(); err != nil {
			return false
		}
		// A second restore from the same checkpoint must also succeed and
		// leave the graph unchanged.
		if err := cp.Restore(); err != nil {
			return false
		}
		return objgraph.Equal(before, objgraph.Capture(tree))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReuseAcrossCommits runs a sequence of captures of one graph
// through one strategy, committing most of them, so later captures fill
// the slabs and spare objects earlier ones handed back.
func TestQuickReuseAcrossCommits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*mutTree
		tree := genMutTree(r, 2, &pool)
		s := New()
		for step := 0; step < 6; step++ {
			// Committed mutations may cut nodes off; only the reachable
			// ones are checkpointed.
			live := reachable(tree, pool)
			before := objgraph.Capture(tree)
			headers := sliceHeaders(live)
			h, err := s.Capture(tree)
			if err != nil {
				return false
			}
			mutate(r, pool)
			if r.Intn(3) == 0 {
				if err := h.Rollback(); err != nil {
					return false
				}
				if !objgraph.Equal(before, objgraph.Capture(tree)) || !reflect.DeepEqual(headers, sliceHeaders(live)) {
					t.Logf("seed %d step %d: rollback after reuse is not exact", seed, step)
					return false
				}
			}
			h.(Committer).Commit()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReuseNestedRollbacks nests captures of one graph through one
// strategy, last in first out as core's frame stack does: every inner
// checkpoint rolls back, and the outermost commits or rolls back. Each
// rollback must bring the graph and its slice headers back exactly, must
// make Restore fail and Commit do nothing, and must hand back what the
// next capture of the restored graph takes: its scratch and every spare
// clone object.
func TestQuickReuseNestedRollbacks(t *testing.T) {
	type frame struct {
		h       Handle
		before  *objgraph.Graph
		live    []*mutTree
		headers []string
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*mutTree
		tree := genMutTree(r, 2, &pool)
		s := New()
		free := s.(*deepCopy)
		for round := 0; round < 4; round++ {
			var stack []frame
			for depth := 1 + r.Intn(3); len(stack) < depth; {
				live := reachable(tree, pool)
				fr := frame{before: objgraph.Capture(tree), live: live, headers: sliceHeaders(live)}
				h, err := s.Capture(tree)
				if err != nil {
					t.Logf("seed %d: capture failed: %v", seed, err)
					return false
				}
				fr.h = h
				stack = append(stack, fr)
				mutate(r, pool)
			}
			for len(stack) > 0 {
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if len(stack) == 0 && r.Intn(2) == 0 {
					fr.h.(Committer).Commit()
					continue
				}
				ck := fr.h.(*Checkpoint)
				sc, own := ck.scratch, 0
				for _, ref := range ck.refs {
					if ref.own {
						own++
					}
				}
				if err := ck.Rollback(); err != nil {
					t.Logf("seed %d round %d: rollback failed: %v", seed, round, err)
					return false
				}
				if !objgraph.Equal(fr.before, objgraph.Capture(tree)) || !reflect.DeepEqual(fr.headers, sliceHeaders(fr.live)) {
					t.Logf("seed %d round %d depth %d: rollback after reuse is not exact", seed, round, len(stack))
					return false
				}
				if err := ck.Restore(); !errors.Is(err, errRolledBack) {
					t.Logf("seed %d: restore after rollback = %v, want errRolledBack", seed, err)
					return false
				}
				scratches, slabs := len(free.scratch), len(free.slabs)
				ck.Commit()
				if len(free.scratch) != scratches || len(free.slabs) != slabs {
					t.Logf("seed %d: commit after rollback handed back more", seed)
					return false
				}
				again, err := s.Capture(tree)
				if err != nil {
					t.Logf("seed %d: capture after rollback failed: %v", seed, err)
					return false
				}
				if a := again.(*Checkpoint); a.scratch != sc || a.next != own {
					t.Logf("seed %d: capture after rollback took %d of %d spares (own scratch: %v)",
						seed, a.next, own, a.scratch == sc)
					return false
				}
				again.(Committer).Commit()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
