package checkpoint

import (
	"testing"

	"failatomic/internal/objgraph"
)

// Edge-case coverage for the clone/restore engine: composite containers,
// pointer-valued maps, arrays of pointers, interfaces over non-pointers,
// Snapshotter values nested in containers, channels and funcs.

type edgeState struct {
	Arr     [3]*point
	PtrMap  map[string]*point
	KeyMap  map[point]int
	Nested  map[string][]int
	AnyList []any
	Ch      chan int
	Fn      func() int
}

func newEdgeState() *edgeState {
	shared := &point{X: 1}
	return &edgeState{
		Arr:     [3]*point{shared, {X: 2}, nil},
		PtrMap:  map[string]*point{"s": shared, "t": {X: 3}},
		KeyMap:  map[point]int{{X: 9}: 90},
		Nested:  map[string][]int{"a": {1, 2}},
		AnyList: []any{1, "two", &point{X: 4}},
		Ch:      make(chan int, 1),
		Fn:      func() int { return 42 },
	}
}

func TestEdgeCaptureRestore(t *testing.T) {
	s := newEdgeState()
	before := objgraph.Capture(s)
	cp, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate everything.
	s.Arr[0].X = 99
	s.Arr[2] = &point{X: 5}
	s.PtrMap["t"].X = 77
	s.PtrMap["new"] = &point{}
	delete(s.PtrMap, "s")
	s.KeyMap[point{X: 9}] = 0
	s.Nested["a"][0] = -1
	s.Nested["b"] = []int{3}
	s.AnyList[0] = 100
	s.AnyList[2].(*point).X = 44

	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(s)); d != "" {
		t.Fatalf("edge restore incomplete: %s", d)
	}
}

func TestEdgeAliasPreservedInMapValues(t *testing.T) {
	s := newEdgeState()
	cp, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	s.PtrMap["s"] = &point{X: 1} // break aliasing with Arr[0]
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if s.PtrMap["s"] != s.Arr[0] {
		t.Fatal("aliasing between map value and array element lost")
	}
}

func TestEdgeChanAndFuncKeptByReference(t *testing.T) {
	s := newEdgeState()
	origCh, origFn := s.Ch, s.Fn
	cp, err := Capture(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Ch = make(chan int)
	s.Fn = func() int { return 0 }
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if s.Ch != origCh {
		t.Fatal("channel identity must be restored")
	}
	if s.Fn() != origFn() {
		t.Fatal("func reference must be restored")
	}
}

// snapInSlice exercises a Snapshotter stored inside a slice.
func TestEdgeSnapshotterInsideSlice(t *testing.T) {
	type holder struct {
		List []*snapType
	}
	h := &holder{List: []*snapType{{val: 1}, {val: 2}}}
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.List[0].val = 10
	h.List[1].val = 20
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if h.List[0].val != 1 || h.List[1].val != 2 {
		t.Fatalf("snapshotter-in-slice restore failed: %d %d", h.List[0].val, h.List[1].val)
	}
}

func TestEdgeSelfReferentialMapValue(t *testing.T) {
	type nodeM struct {
		Name string
		Next map[string]*nodeM
	}
	a := &nodeM{Name: "a", Next: map[string]*nodeM{}}
	a.Next["self"] = a // cycle through a map
	before := objgraph.Capture(a)
	cp, err := Capture(a)
	if err != nil {
		t.Fatal(err)
	}
	a.Name = "mutated"
	a.Next["self"] = &nodeM{Name: "other"}
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(a)); d != "" {
		t.Fatalf("map-cycle restore failed: %s", d)
	}
	if a.Next["self"] != a {
		t.Fatal("cycle identity lost")
	}
}

func TestEdgeEmptyContainers(t *testing.T) {
	type holder struct {
		S []int
		M map[string]int
	}
	h := &holder{S: []int{}, M: map[string]int{}}
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.S = append(h.S, 1)
	h.M["k"] = 1
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if len(h.S) != 0 || len(h.M) != 0 {
		t.Fatalf("empty containers not restored: %v %v", h.S, h.M)
	}
}

func TestEdgeByteSliceBulkPath(t *testing.T) {
	type blob struct {
		Data []byte
	}
	b := &blob{Data: []byte("hello world")}
	before := objgraph.Capture(b)
	cp, err := Capture(b)
	if err != nil {
		t.Fatal(err)
	}
	b.Data[0] = 'X'
	after := objgraph.Capture(b)
	if objgraph.Equal(before, after) {
		t.Fatal("byte mutation must be visible through the bulk path")
	}
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(b)); d != "" {
		t.Fatalf("bulk restore failed: %s", d)
	}
}

func TestUnsupportedErrorMessages(t *testing.T) {
	withField := &UnsupportedError{Type: "pkg.T", Field: "secret", Why: "unexported"}
	if withField.Error() != "checkpoint: cannot checkpoint pkg.T.secret: unexported" {
		t.Fatalf("got %q", withField.Error())
	}
	noField := &UnsupportedError{Type: "pkg.T", Why: "nil root"}
	if noField.Error() != "checkpoint: cannot checkpoint pkg.T: nil root" {
		t.Fatalf("got %q", noField.Error())
	}
}

func TestJournalHandleBytes(t *testing.T) {
	c := &journaledCounter{}
	h, err := New().Capture(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(5)
	if h.Bytes() != 8 {
		t.Fatalf("journal handle bytes = %d", h.Bytes())
	}
	if err := h.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreArrayOfStructsInPlace(t *testing.T) {
	type pair struct{ A, B int }
	type holder struct {
		Arr [2]pair
		Ptr *[2]pair
	}
	h := &holder{Arr: [2]pair{{A: 1}, {B: 2}}, Ptr: &[2]pair{{A: 3}, {B: 4}}}
	before := objgraph.Capture(h)
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.Arr[0].A = 99
	h.Ptr[1].B = 99
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(h)); d != "" {
		t.Fatalf("array restore failed: %s", d)
	}
}

func TestRestoreStructInsideFreshContainer(t *testing.T) {
	// A struct value stored as a map value exercises restoreComposite:
	// the map is refilled with materialized struct copies.
	type pt struct{ X, Y int }
	type holder struct {
		M map[string]pt
		S []pt
	}
	h := &holder{
		M: map[string]pt{"a": {X: 1, Y: 2}},
		S: []pt{{X: 3}, {Y: 4}},
	}
	before := objgraph.Capture(h)
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.M["a"] = pt{X: 9}
	h.M["b"] = pt{}
	h.S[0].X = 9
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(h)); d != "" {
		t.Fatalf("composite restore failed: %s", d)
	}
}

func TestRestoreInterfaceOverStruct(t *testing.T) {
	type pt struct{ X int }
	type holder struct {
		Any any
	}
	h := &holder{Any: pt{X: 5}} // non-pointer dynamic value
	before := objgraph.Capture(h)
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.Any = pt{X: 6}
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(h)); d != "" {
		t.Fatalf("interface-over-struct restore failed: %s", d)
	}
}
