package objgraph

import (
	"fmt"
	"math"
	"math/rand"
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
// roots, where the traversal-ordinal aliasing ids must line up. The
// cached engine must agree with the cold one on every multi-root shape,
// including a root repeated verbatim (a, b, a).
func TestQuickFingerprintMultiRoot(t *testing.T) {
	c := NewFPCache(0)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var pool []*randTree
		a := genTree(r, 3, &pool)
		b := genTree(r, 3, &pool)
		b.Link = a // cross-root alias

		g := Capture(a, b)
		fp := Fingerprint(a, b)
		if !Equal(g, Capture(a, b)) || Fingerprint(a, b) != fp || FingerprintCached(c, a, b) != fp {
			return false
		}
		if FingerprintCached(c, a, b, a) != Fingerprint(a, b, a) {
			return false
		}
		undo := mutateTree(r, a, pool)
		c.Bump()
		eq := Equal(g, Capture(a, b))
		fpEq := Fingerprint(a, b) == fp
		cachedEq := FingerprintCached(c, a, b) == fp
		undo()
		c.Bump()
		return eq == fpEq && eq == cachedEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	// Large framed leaves across roots: three independent payload roots
	// plus the first repeated, cached and cold alike.
	r := rand.New(rand.NewSource(11))
	roots := make([]any, 3)
	for i := range roots {
		roots[i] = genFlat(r, 128<<10)
	}
	aliased := []any{roots[0], roots[1], roots[2], roots[0]}
	for _, rs := range [][]any{roots, aliased} {
		want := Fingerprint(rs...)
		for i := 0; i < 3; i++ {
			if got := FingerprintCached(c, rs...); got != want {
				t.Fatalf("cached %d-root fp %x != cold %x (call %d)", len(rs), got, want, i)
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
