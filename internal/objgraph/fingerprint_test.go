package objgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// mutateTree applies one random mutation to a generated tree, returning an
// undo closure. Mutation classes cover scalars, strings, slice shape, map
// entries and aliasing edges — the state classes Diff discriminates.
func mutateTree(r *rand.Rand, tree *randTree, pool []*randTree) func() {
	victim := pool[r.Intn(len(pool))]
	switch r.Intn(5) {
	case 0:
		old := victim.Value
		victim.Value++
		return func() { victim.Value = old }
	case 1:
		old := victim.Name
		victim.Name += "x"
		return func() { victim.Name = old }
	case 2:
		old := victim.Flags
		victim.Flags = append(append([]bool(nil), old...), true)
		return func() { victim.Flags = old }
	case 3:
		if victim.Index == nil {
			victim.Index = map[string]int{}
			return func() { victim.Index = nil }
		}
		old, had := victim.Index["k1"]
		victim.Index["k1"] = old + 7
		return func() {
			if had {
				victim.Index["k1"] = old
			} else {
				delete(victim.Index, "k1")
			}
		}
	default:
		old := victim.Link
		victim.Link = &randTree{Value: -9}
		return func() { victim.Link = old }
	}
}

// TestQuickFingerprintMatchesCapture is the tentpole equivalence property:
// on randomized graphs (cycles, aliasing, maps, slices), fingerprints
// agree exactly when the captured graphs are Equal — both before and after
// a random mutation, and again after undoing it.
func TestQuickFingerprintMatchesCapture(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		tree := genTree(r, 4, &pool)

		beforeG := Capture(tree)
		beforeFP := Fingerprint(tree)
		if Fingerprint(tree) != beforeFP {
			return false // fingerprint must be deterministic
		}

		undo := mutateTree(r, tree, pool)
		mutatedEq := Equal(beforeG, Capture(tree))
		mutatedFPEq := Fingerprint(tree) == beforeFP
		if mutatedEq != mutatedFPEq {
			return false // engines disagree on the mutated graph
		}

		undo()
		return Equal(beforeG, Capture(tree)) == (Fingerprint(tree) == beforeFP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFingerprintMultiRoot checks the equivalence over multi-root
// captures (receiver + by-ref args), including shared structure across
// roots, where the traversal-ordinal aliasing ids must line up, and a
// root repeated verbatim (a, b, a).
func TestQuickFingerprintMultiRoot(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		a := genTree(r, 3, &pool)
		b := genTree(r, 3, &pool)
		b.Link = a // cross-root alias

		g := Capture(a, b)
		fp := Fingerprint(a, b)
		if !Equal(g, Capture(a, b)) || Fingerprint(a, b) != fp || Fingerprint(a, b, a) != Fingerprint(a, b, a) {
			return false
		}
		undo := mutateTree(r, a, pool)
		eq := Equal(g, Capture(a, b))
		fpEq := Fingerprint(a, b) == fp
		undo()
		return eq == fpEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Large framed leaves across roots: three independent payload roots
	// plus the first repeated.
	r := rand.New(rand.NewSource(11))
	roots := make([]any, 3)
	for i := range roots {
		roots[i] = genFlat(r, 128<<10)
	}
	aliased := []any{roots[0], roots[1], roots[2], roots[0]}
	for _, rs := range [][]any{roots, aliased} {
		want := Fingerprint(rs...)
		for i := 0; i < 3; i++ {
			if got := Fingerprint(rs...); got != want {
				t.Fatalf("%d-root fp %x != %x (call %d)", len(rs), got, want, i)
			}
		}
	}
	if Fingerprint(roots...) == Fingerprint(aliased...) {
		t.Error("a repeated root must change the fingerprint")
	}
}

// TestFingerprintSingleBitCollisions is the collision-resistance sanity
// test: flipping any single bit of a scalar payload must change the
// fingerprint, and every flip must produce a distinct fingerprint.
func TestFingerprintSingleBitCollisions(t *testing.T) {
	type payload struct {
		A uint64
		B float64
		C int32
	}
	p := &payload{A: 0xDEADBEEF, B: 3.14159, C: -7}
	base := Fingerprint(p)
	seen := map[FP]string{base: "base"}

	record := func(what string) {
		fp := Fingerprint(p)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("fingerprint collision between %s and %s", what, prev)
		}
		seen[fp] = what
	}
	for bit := 0; bit < 64; bit++ {
		p.A ^= 1 << bit
		record(fmt.Sprintf("A bit %d", bit))
		p.A ^= 1 << bit
	}
	for bit := 0; bit < 64; bit++ {
		flipped := math.Float64bits(p.B) ^ 1<<bit
		old := p.B
		p.B = math.Float64frombits(flipped)
		if !math.IsNaN(p.B) { // NaNs canonicalize by design (Capture parity)
			record(fmt.Sprintf("B bit %d", bit))
		}
		p.B = old
	}
	for bit := 0; bit < 32; bit++ {
		p.C ^= 1 << bit
		record(fmt.Sprintf("C bit %d", bit))
		p.C ^= 1 << bit
	}
	if Fingerprint(p) != base {
		t.Fatal("undo failed: fingerprint must return to base")
	}
}

// TestFingerprintSpecialValues pins equivalence on the edge cases the
// encoders special-case: NaN floats/complex (Capture collapses NaN
// payloads via FormatComplex), byte slices (bulk fast path), nil
// references, and interface dynamic types.
func TestFingerprintSpecialValues(t *testing.T) {
	type box struct {
		C  complex128
		F  float64
		Bs []byte
		P  *int
		I  any
	}
	nan1 := math.NaN()
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // distinct payload
	n := 5

	cases := []struct {
		name string
		a, b *box
	}{
		{"nan payloads collapse (complex)", &box{C: complex(nan1, 1)}, &box{C: complex(nan2, 1)}},
		{"nan vs number differ", &box{C: complex(nan1, 1)}, &box{C: complex(0, 1)}},
		{"byte slices equal", &box{Bs: []byte("hello")}, &box{Bs: []byte("hello")}},
		{"byte slices differ", &box{Bs: []byte("hello")}, &box{Bs: []byte("hellO")}},
		{"nil vs set pointer", &box{}, &box{P: &n}},
		{"iface dynamic type", &box{I: int64(1)}, &box{I: uint64(1)}},
		{"iface nil vs zero", &box{}, &box{I: 0}},
	}
	for _, tc := range cases {
		wantEq := Equal(Capture(tc.a), Capture(tc.b))
		gotEq := Fingerprint(tc.a) == Fingerprint(tc.b)
		if wantEq != gotEq {
			t.Errorf("%s: Capture equal=%v but Fingerprint equal=%v", tc.name, wantEq, gotEq)
		}
	}

	// Raw-bit float semantics: Capture stores Float64bits, so two NaN
	// payloads of a plain float64 field are DISTINCT graphs and must be
	// distinct fingerprints.
	a, b := &box{F: nan1}, &box{F: nan2}
	if Equal(Capture(a), Capture(b)) != (Fingerprint(a) == Fingerprint(b)) {
		t.Error("float NaN raw-bit semantics diverge between Capture and Fingerprint")
	}
}

// TestFingerprintZeroAlloc proves the hot path allocates nothing on a
// representative receiver shape (struct + pointer + byte slice + array)
// once the type plans and the encoder pool are warm.
func TestFingerprintZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	type meta struct{ Words [8]uint64 }
	type payload struct {
		Data []byte
		M    meta
		Next *payload
	}
	p := &payload{Data: make([]byte, 1024)}
	p.M.Words[3] = 42
	p.Next = &payload{Data: p.Data[:16]}

	allocs := testing.AllocsPerRun(100, func() {
		Fingerprint(p)
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocated %.1f allocs/op, want 0", allocs)
	}
}

// Graph shapes for the mutation-sequence properties: a linked list of
// framed 2 KiB payloads, a binary search tree (no large leaves), and a
// flat struct dominated by one framed blob.

type fpList struct {
	V       int
	Payload []byte
	Next    *fpList
}

func genList(r *rand.Rand, n int) *fpList {
	var head *fpList
	for i := 0; i < n; i++ {
		p := make([]byte, 2048)
		r.Read(p)
		head = &fpList{V: r.Int(), Payload: p, Next: head}
	}
	return head
}

type fpTree struct {
	Key         int
	Red         bool
	Left, Right *fpTree
}

func genBST(r *rand.Rand, n int) *fpTree {
	var root *fpTree
	var insert func(t *fpTree, k int) *fpTree
	insert = func(t *fpTree, k int) *fpTree {
		if t == nil {
			return &fpTree{Key: k, Red: k%2 == 0}
		}
		if k < t.Key {
			t.Left = insert(t.Left, k)
		} else {
			t.Right = insert(t.Right, k)
		}
		return t
	}
	for i := 0; i < n; i++ {
		root = insert(root, r.Intn(1<<20))
	}
	return root
}

type fpFlat struct {
	Name string
	Blob []byte
	Seq  uint64
}

func genFlat(r *rand.Rand, n int) *fpFlat {
	b := make([]byte, n)
	r.Read(b)
	return &fpFlat{Name: "payload", Blob: b, Seq: r.Uint64()}
}

// mutate applies one random in-place mutation to whichever graph family
// root points at, mirroring the session-visible state classes.
func mutateGraph(r *rand.Rand, root any) {
	switch g := root.(type) {
	case *fpList:
		n := g
		for i := r.Intn(8); i > 0 && n.Next != nil; i-- {
			n = n.Next
		}
		switch r.Intn(3) {
		case 0:
			n.V++
		case 1:
			n.Payload[r.Intn(len(n.Payload))] ^= 0xff
		default:
			n.Next = &fpList{V: -1, Payload: []byte("fresh"), Next: n.Next}
		}
	case *fpTree:
		n := g
		for n.Left != nil && r.Intn(2) == 0 {
			n = n.Left
		}
		switch r.Intn(3) {
		case 0:
			n.Key++
		case 1:
			n.Red = !n.Red
		default:
			n.Right = &fpTree{Key: -1, Left: n.Right}
		}
	case *fpFlat:
		switch r.Intn(3) {
		case 0:
			g.Blob[r.Intn(len(g.Blob))]++
		case 1:
			g.Seq++
		default:
			g.Name += "x"
		}
	}
}

// TestFingerprintMutationSequences: over random mutation sequences on
// each graph shape, fingerprint equality against the pre-mutation
// baseline tracks Capture equality at every step.
func TestFingerprintMutationSequences(t *testing.T) {
	r := rand.New(rand.NewSource(0x5eed))
	graphs := []struct {
		name string
		root any
	}{
		{"linked-list", genList(r, 16)},
		{"bst", genBST(r, 64)},
		{"flat-payload", genFlat(r, 8192)},
	}
	for _, g := range graphs {
		t.Run(g.name, func(t *testing.T) {
			base := Capture(g.root)
			baseFP := Fingerprint(g.root)
			for step := 0; step < 40; step++ {
				mutateGraph(r, g.root)
				fp := Fingerprint(g.root)
				if again := Fingerprint(g.root); again != fp {
					t.Fatalf("step %d: fingerprint not deterministic: %x != %x", step, again, fp)
				}
				if eq := Equal(base, Capture(g.root)); eq != (fp == baseFP) {
					t.Fatalf("step %d: capture-equality %v disagrees with fp-equality %v",
						step, eq, fp == baseFP)
				}
			}
		})
	}
}

// TestFingerprintConcurrent fingerprints one shared read-only graph from
// many goroutines, under -race: each call takes its own pooled encoder,
// so no state may be shared through fpPool.
func TestFingerprintConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shared := genList(r, 32)
	want := Fingerprint(shared)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := Fingerprint(shared); got != want {
					t.Errorf("worker %d iter %d: fp %x != %x", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFingerprintPooledEncoderReuse interleaves multi-root calls over
// aliased roots with single-root calls: pooled encoders must come back
// reset, leaving no state that could perturb a later fingerprint.
func TestFingerprintPooledEncoderReuse(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a, b := genList(r, 8), genBST(r, 32)
	cleanWant := Fingerprint(a)
	aliasWant := Fingerprint(a, b, a)
	for i := 0; i < 20; i++ {
		if got := Fingerprint(a, b, a); got != aliasWant {
			t.Fatalf("iter %d: aliased fp %x != %x", i, got, aliasWant)
		}
		if got := Fingerprint(a); got != cleanWant {
			t.Fatalf("iter %d: single-root fp %x != %x", i, got, cleanWant)
		}
	}
}
