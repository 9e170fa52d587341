package objgraph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"failatomic/internal/typeplan"
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
// representative receiver shape (struct + pointer + byte slice + array +
// a slice longer than the interned "[i]" labels + values held in empty
// and non-empty interfaces, directly and behind a copy, as a container of
// Items holds them) once the type plans and the encoder pool are warm,
// on a pooled walker and on a Scratch.
func TestFingerprintZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	type meta struct{ Words [8]uint64 }
	type payload struct {
		Data  []byte
		M     meta
		Next  *payload
		Long  []int
		Items []any
		Str   fmt.Stringer
	}
	p := &payload{Data: make([]byte, 1024), Long: make([]int, 1000)}
	p.M.Words[3] = 42
	p.Next = &payload{Data: p.Data[:16], Str: kText{"copy"}}
	p.Items = []any{p.Next, 7, "item", meta{}, kDirect{}, [1]*payload{p}, nil}
	p.Str = &kNode{}

	allocs := testing.AllocsPerRun(100, func() {
		Fingerprint(p)
	})
	if allocs != 0 {
		t.Fatalf("Fingerprint allocated %.1f allocs/op, want 0", allocs)
	}
	var s Scratch
	allocs = testing.AllocsPerRun(100, func() {
		s.Fingerprint(p, p.Next)
	})
	if allocs != 0 {
		t.Fatalf("Scratch.Fingerprint allocated %.1f allocs/op, want 0", allocs)
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
// so no state may be shared through walkPool.
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

// pinnedCase is one entry of the fixed corpus whose fingerprints are
// pinned: its roots are rebuilt identically on every call.
type pinnedCase struct {
	name  string
	roots func() []any
	want  FP
}

// pinnedCorpus covers every node kind Fingerprint folds (func values
// aside: their identity is a code address, which a rebuild may move) and
// the aliasing shapes whose ids a change of alias numbering would shift.
var pinnedCorpus = []pinnedCase{
	{"kitchen-sink", func() []any {
		return []any{&kitchenSink{
			U8: 1, U64: 2, UP: 3, F32: 4.5,
			C64: complex(1, 2), C128: complex(3, 4),
			Arr: [2]int{7, 8},
			Any: [2]string{"x", "y"},
		}}
	}, FP{0x9255db452d38a0d2, 0x5fffd347588765bd}},
	{"cycle", func() []any {
		a := &node{Value: 1}
		a.Next = &node{Value: 2, Next: a}
		return []any{a}
	}, FP{0x4ff9d21c2dd87417, 0x12b0ed4dc81c5de2}},
	{"shared-slices", func() []any {
		type views struct{ Full, Same, Head, Tail []int }
		b := []int{1, 2, 3, 4}
		return []any{&views{Full: b, Same: b, Head: b[:2], Tail: b[2:]}}
	}, FP{0xdf4f9ffdfef69d7a, 0x24ee5e7415642cdf}},
	{"slice-views-by-length", func() []any {
		type views struct{ Wide, Narrow []int }
		b := []int{1, 2, 3, 4}
		return []any{&views{Wide: b[:2], Narrow: b[:2:2]}}
	}, FP{0x07bb1ddb3eded3c8, 0x04868f737132ed97}},
	{"cross-root-alias", func() []any {
		p := &point{X: 1, Y: 2}
		m := map[string]int{"a": 1, "b": 2}
		return []any{&box{Name: "r", P: p, Counts: m, Tags: []string{"t"}}, p, m, nil}
	}, FP{0xa40f2d7634395e00, 0x0dcad2bd737df519}},
	{"pointer-keyed-map", func() []any {
		return []any{map[*point]string{{X: 2}: "two", {X: 1}: "one"}}
	}, FP{0xcd727118d2299a04, 0x0e17262812e14331}},
	{"bytes-and-strings", func() []any {
		type blobs struct {
			Small []byte
			Large []byte
			Text  string
			Arr   [2048]byte
			inner []byte
		}
		large := make([]byte, 4096)
		for i := range large {
			large[i] = byte(i * 7)
		}
		bl := &blobs{Small: []byte("abc"), Large: large, Text: strings.Repeat("xyz", 500), inner: []byte("hidden")}
		bl.Arr[5] = 9
		return []any{bl}
	}, FP{0xf8f01e5bbde461a5, 0x94778e47756bf669}},
}

// TestFingerprintValuesPinned pins the fingerprint of every corpus entry,
// so a change to the alias numbering, the hash or the traversal order
// cannot pass as long as both engines move together.
func TestFingerprintValuesPinned(t *testing.T) {
	for _, tc := range pinnedCorpus {
		if got := Fingerprint(tc.roots()...); got != tc.want {
			t.Errorf("%s: Fingerprint = FP{%#x, %#x}, want FP{%#x, %#x}", tc.name, got[0], got[1], tc.want[0], tc.want[1])
		}
	}
}

// refFingerprint is Fingerprint through encode, the reflect.Value walk
// the offset kernel replaced: the reference the kernel must match bit for
// bit.
func refFingerprint(roots ...any) FP {
	w := getWalker()
	defer w.release()
	e := fpEncoder{walker: w}
	e.h.reset()
	for i, r := range roots {
		v, pl := e.rootValue(r)
		e.encode(v, pl, rootLabelHash(i))
	}
	return e.h.sum()
}

// encode is the reference: it mirrors walker.head case for case through
// reflect.Value and visits children in encoder.encode's order. pl is the
// plan of v's type.
func (e *fpEncoder) encode(v reflect.Value, pl *typeplan.Plan, labelKey uint64) {
	if !v.IsValid() {
		e.leaf(KindNil, emptyTypeHash, labelKey)
		return
	}
	switch pl.Kind {
	case reflect.Bool:
		e.leaf(KindBool, pl.TypeHash, labelKey)
		var bit uint64
		if v.Bool() {
			bit = 1
		}
		e.h.word(bit)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.leaf(KindInt, pl.TypeHash, labelKey)
		e.h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.leaf(KindUint, pl.TypeHash, labelKey)
		e.h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		e.leaf(KindFloat, pl.TypeHash, labelKey)
		e.h.word(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		// Capture compares complex values by their formatted string, which
		// collapses every NaN payload to "NaN"; canonicalizing NaN bits
		// reproduces those equivalence classes without the allocation.
		e.leaf(KindComplex, pl.TypeHash, labelKey)
		c := v.Complex()
		e.h.word(canonFloatBits(real(c)))
		e.h.word(canonFloatBits(imag(c)))
	case reflect.String:
		e.leaf(KindString, pl.TypeHash, labelKey)
		s := v.String()
		if len(s) >= fpLeafFrameMin {
			// Large-leaf framing: fold the length, then the bulk content
			// digest. The framed/streamed choice is a pure function of
			// the length, so equal strings always take the same spelling.
			e.h.word(uint64(len(s)))
			d := bulkHash128String(s)
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		e.h.str(s)
	case reflect.Pointer:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(v.Pointer(), pl, 0, 0)
		e.leaf(KindPointer, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.encode(v.Elem(), pl.Elem, derefLabel)
	case reflect.Slice:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		n := v.Len()
		id, seen := e.refs.Intern(v.Pointer(), pl, n, 0)
		e.leaf(KindSlice, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.h.word(uint64(n))
		if pl.ByteElem {
			// Bulk fast path, mirroring Capture's one-payload encoding.
			// Capture stores the same Str for exported and unexported
			// byte slices, so both spell identically here too: unexported
			// slices copy through encoder scratch (Bytes() is forbidden)
			// and hash the same stream.
			b := e.bytesOf(v)
			if n >= fpLeafFrameMin {
				d := bulkHash128(b)
				e.h.word(d[0])
				e.h.word(d[1])
			} else {
				e.h.bytes(b)
			}
			return
		}
		for i := 0; i < n; i++ {
			e.encode(v.Index(i), pl.Elem, e.indexLabelHash(i))
		}
	case reflect.Array:
		e.leaf(KindArray, pl.TypeHash, labelKey)
		n := v.Len()
		e.h.word(uint64(n))
		if pl.ByteArray && n >= fpLeafFrameMin {
			// Large byte arrays frame like large byte slices. The framing
			// decision depends only on (type, len) — never addressability —
			// so capture-equal arrays hash equal whichever extraction path
			// runs.
			d := bulkHash128(e.bytesOf(v))
			e.h.word(d[0])
			e.h.word(d[1])
			return
		}
		for i := 0; i < n; i++ {
			e.encode(v.Index(i), pl.Elem, e.indexLabelHash(i))
		}
	case reflect.Map:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		id, seen := e.refs.Intern(v.Pointer(), pl, 0, 0)
		e.leaf(KindMap, pl.TypeHash, labelKey)
		e.ref(id, seen)
		if seen {
			return
		}
		e.h.word(uint64(v.Len()))
		// Same canonical entry order as Capture. Map traversal allocates
		// (MapKeys, signature strings); maps are rare on the detect hot
		// path and the zero-alloc guarantee covers the struct/pointer/
		// slice shapes wrapped receivers actually have.
		base, ents := e.pushEntries(v)
		for _, ent := range ents {
			e.leaf(KindEntry, emptyTypeHash, typeplan.StrHash64(ent.sig))
			e.h.str(ent.sig)
			e.encode(v.MapIndex(ent.key), pl.Elem, valueLabel)
		}
		e.popEntries(base)
	case reflect.Struct:
		e.leaf(KindStruct, pl.TypeHash, labelKey)
		for _, f := range pl.Fields {
			e.encode(v.Field(f.Index), f.Plan, f.LabelHash)
		}
	case reflect.Interface:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindInterface, pl.TypeHash, labelKey)
		dyn := v.Elem()
		e.encode(dyn, e.dyn.planOf(dyn.Type()), dynLabel)
	case reflect.Chan:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindChan, pl.TypeHash, labelKey)
		e.h.word(uint64(v.Pointer()))
	case reflect.Func:
		if v.IsNil() {
			e.leaf(KindNil, pl.TypeHash, labelKey)
			return
		}
		e.leaf(KindFunc, pl.TypeHash, labelKey)
		e.h.word(uint64(v.Pointer()))
	default:
		// Opaque: Capture's Str is a pure function of the reflect kind and
		// the addressability flag; hash those instead of the string.
		e.leaf(KindOpaque, pl.TypeHash, labelKey)
		if v.CanAddr() || pl.Kind == reflect.UnsafePointer {
			e.h.word(uint64(pl.Kind)<<1 | 1)
		} else {
			e.h.word(0)
		}
	}
}
