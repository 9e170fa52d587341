package objgraph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"failatomic/internal/typeplan"
)

// The offset kernel against the reflect reference (refFingerprint): fuzz
// input drives a generator over a node type with a field of every kind,
// exported and unexported, so every shape the kernel reads through raw
// memory is compared with the reflect.Value walk it replaced.

type kInner struct {
	A int16
	b string
}

// kDirect is a one-pointer struct: an interface holds it in its data
// word.
type kDirect struct{ p *kNode }

// kText is held behind a pointer to a copy, in an any or a fmt.Stringer.
type kText struct{ s string }

func (t kText) String() string { return t.s }

func (n *kNode) String() string { return "node" }

type kNode struct {
	B    bool
	I    int
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	U    uint
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	UP   uintptr
	F32  float32
	F64  float64
	C64  complex64
	C128 complex128
	S    string
	Bs   []byte
	Ba   [5]byte
	Ints []int
	Kids []kNode
	Arr  [2]*kNode
	One  [1]*kNode
	Dir  kDirect
	M    map[string]kInner
	MP   map[int]*kNode
	MA   map[kInner]any
	MF   map[float64]int
	MI   map[any]kInner
	Any  any
	Str  fmt.Stringer
	Ch   chan int
	Fn   func()
	Ptr  unsafe.Pointer
	Next *kNode

	hidden kInner
	secret []byte
	priv   any
	pm     map[string][]byte
	big    *[fpLeafFrameMin]byte
	small  *[fpLeafFrameMin - 1]byte
}

// kChans and kFuncs are shared, so equal inputs build equal graphs.
var (
	kChans = [2]chan int{make(chan int), make(chan int, 1)}
	kFuncs = [3]func(){nil, func() {}, kNop}
)

func kNop() {}

// kReader reads the fuzz input; past its end every read is zero.
type kReader struct {
	b []byte
	i int
}

func (r *kReader) more() bool { return r.i < len(r.b) }

func (r *kReader) byte() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

func (r *kReader) n(k int) int { return int(r.byte()) % k }

func (r *kReader) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(r.byte())
	}
	return x
}

// kLens are the byte-payload lengths: streamed, at and past the framing
// cutoff.
var kLens = []int{0, 1, 7, 8, 9, 31, fpLeafFrameMin - 1, fpLeafFrameMin, fpLeafFrameMin + 1, 3000}

// kGen generates a graph from a reader, keeping what later steps alias.
type kGen struct {
	r     *kReader
	nodes []*kNode
	bytes [][]byte
	ints  [][]int
}

func (b *kGen) payload() []byte {
	p := make([]byte, kLens[b.r.n(len(kLens))])
	rand.New(rand.NewSource(int64(b.r.u64()))).Read(p)
	b.bytes = append(b.bytes, p)
	return p
}

// byteSlice returns a fresh payload or a view of an earlier one.
func (b *kGen) byteSlice() []byte {
	if len(b.bytes) == 0 || b.r.n(2) == 0 {
		return b.payload()
	}
	p := b.bytes[b.r.n(len(b.bytes))]
	lo := b.r.n(len(p) + 1)
	hi := lo + b.r.n(len(p)-lo+1)
	return p[lo:hi]
}

func (b *kGen) intSlice() []int {
	if len(b.ints) > 0 && b.r.n(2) == 0 {
		p := b.ints[b.r.n(len(b.ints))]
		lo := b.r.n(len(p) + 1)
		return p[lo:]
	}
	p := make([]int, b.r.n(5))
	for i := range p {
		p[i] = int(b.r.u64())
	}
	b.ints = append(b.ints, p)
	return p
}

// node returns nil, an earlier node or a new one.
func (b *kGen) node() *kNode {
	switch k := b.r.n(len(b.nodes) + 2); {
	case k == 0:
		return nil
	case k <= len(b.nodes) || len(b.nodes) >= 64:
		return b.nodes[(k-1)%len(b.nodes)]
	}
	n := new(kNode)
	b.nodes = append(b.nodes, n)
	return n
}

// held returns a value for an interface: nil, or one of direct and
// indirect types of most kinds.
func (b *kGen) held() any {
	r := b.r
	switch r.n(26) {
	case 0:
		return nil
	case 1:
		return int(r.u64())
	case 2:
		return int8(r.byte())
	case 3:
		return string(b.byteSlice())
	case 4:
		return b.node()
	case 5:
		return kDirect{b.node()}
	case 6:
		return [1]*kNode{b.node()}
	case 7:
		return kInner{A: int16(r.u64()), b: fmt.Sprint(r.byte())}
	case 8:
		return b.byteSlice()
	case 9:
		return [3]int{int(r.byte()), 2, 3}
	case 10:
		return map[string]int{"a": int(r.byte()), fmt.Sprint(r.byte()): 2}
	case 11:
		return kFuncs[1+r.n(2)]
	case 12:
		return kChans[r.n(2)]
	case 13:
		return unsafe.Pointer(b.node())
	case 14:
		return math.Float32frombits(uint32(r.u64()))
	case 15:
		return complex(math.Float32frombits(uint32(r.u64())), 1)
	case 16:
		return kText{fmt.Sprint(r.byte())}
	case 17:
		var a [fpLeafFrameMin]byte
		copy(a[:], b.payload())
		return a
	case 18:
		return &[2]any{b.held(), b.held()}
	case 19:
		return [1]kDirect{{b.node()}}
	case 20:
		return struct{ f func() }{kFuncs[r.n(3)]}
	case 21:
		return r.byte()&1 == 1
	case 22:
		return uintptr(r.u64())
	default:
		var s fmt.Stringer = kText{"x"}
		return &s
	}
}

func (b *kGen) stringer() fmt.Stringer {
	switch b.r.n(3) {
	case 0:
		return nil
	case 1:
		return kText{fmt.Sprint(b.r.byte())}
	}
	if n := b.node(); n != nil {
		return n
	}
	return nil
}

// step sets one field of one node from the input.
func (b *kGen) step() {
	r := b.r
	n := b.nodes[r.n(len(b.nodes))]
	switch r.n(24) {
	case 0:
		n.B = r.byte()&1 == 1
	case 1:
		n.I, n.I8, n.I16, n.I32, n.I64 = int(r.u64()), int8(r.byte()), int16(r.u64()), int32(r.u64()), int64(r.u64())
	case 2:
		n.U, n.U8, n.U16, n.U32, n.U64, n.UP = uint(r.u64()), r.byte(), uint16(r.u64()), uint32(r.u64()), r.u64(), uintptr(r.u64())
	case 3:
		n.F32, n.F64 = math.Float32frombits(uint32(r.u64())), math.Float64frombits(r.u64())
	case 4:
		n.C64 = complex(math.Float32frombits(uint32(r.u64())), math.Float32frombits(uint32(r.u64())))
		n.C128 = complex(math.Float64frombits(r.u64()), math.Float64frombits(r.u64()))
	case 5:
		n.S = string(b.byteSlice())
	case 6:
		n.Bs = b.byteSlice()
	case 7:
		n.Ints = b.intSlice()
	case 8:
		n.Kids = make([]kNode, r.n(3))
		for i := range n.Kids {
			n.Kids[i].I = int(r.byte())
			if len(b.nodes) < 64 {
				// An interior pointer into the slice's array.
				b.nodes = append(b.nodes, &n.Kids[i])
			}
		}
	case 9:
		n.Arr[r.n(2)] = b.node()
	case 10:
		n.One[0], n.Dir.p = b.node(), b.node()
	case 11:
		n.M = map[string]kInner{}
		for i := r.n(4); i > 0; i-- {
			n.M[fmt.Sprint(r.byte())] = kInner{A: int16(r.u64()), b: fmt.Sprint(r.byte())}
		}
	case 12:
		n.MP = map[int]*kNode{}
		for i := r.n(4); i > 0; i-- {
			n.MP[int(r.byte())] = b.node()
		}
	case 13:
		n.MA = map[kInner]any{}
		for i := r.n(3); i > 0; i-- {
			n.MA[kInner{A: int16(r.byte()), b: "k"}] = b.held()
		}
	case 14:
		n.Any = b.held()
	case 15:
		n.Str = b.stringer()
	case 16:
		n.Ch, n.Fn = kChans[r.n(2)], kFuncs[r.n(3)]
		if r.n(2) == 0 {
			n.Ch = nil
		}
	case 17:
		n.Ptr = unsafe.Pointer(b.node())
	case 18:
		n.Next = b.node()
	case 19:
		n.hidden = kInner{A: int16(r.u64()), b: string(b.byteSlice())}
		n.secret = b.byteSlice()
	case 20:
		n.priv = b.held()
	case 21:
		n.pm = map[string][]byte{}
		for i := r.n(3); i > 0; i-- {
			n.pm[fmt.Sprint(r.byte())] = b.byteSlice()
		}
	case 22:
		n.big, n.small = new([fpLeafFrameMin]byte), new([fpLeafFrameMin - 1]byte)
		copy(n.big[:], b.payload())
		copy(n.small[:], b.payload())
	case 23:
		n.MF = map[float64]int{}
		for i := r.n(4); i > 0; i-- {
			n.MF[b.key()] = int(r.byte())
		}
	case 24:
		n.MI = map[any]kInner{}
		for i := r.n(4); i > 0; i-- {
			var k any = b.key()
			if r.n(2) == 0 {
				k = fmt.Sprint(r.byte())
			}
			n.MI[k] = kInner{A: int16(r.byte())}
		}
	default:
		n.Ba[r.n(5)] = r.byte()
	}
}

// key returns a float map key, NaN one time in four: a NaN key never
// equals itself, so looking its entry up finds no value.
func (b *kGen) key() float64 {
	if b.r.n(4) == 0 {
		return math.NaN()
	}
	return float64(b.r.byte())
}

// kRoots builds a graph from data and returns the roots to fingerprint:
// the first node, plus (by the first byte) more roots of every sort.
func kRoots(data []byte) []any {
	r := &kReader{b: data}
	shape := r.byte()
	b := &kGen{r: r, nodes: []*kNode{{}}}
	for r.more() {
		b.step()
	}
	roots := []any{b.nodes[0]}
	if shape&1 != 0 {
		roots = append(roots, *b.nodes[len(b.nodes)-1]) // a struct root, held indirectly
	}
	if shape&2 != 0 {
		roots = append(roots, b.nodes[0].Dir, b.nodes[0].One, b.nodes[0].M)
	}
	if shape&4 != 0 {
		roots = append(roots, nil, b.nodes[len(b.nodes)/2], b.nodes[0].Str)
	}
	if shape&8 != 0 {
		r.i = 0
		roots = append(roots, b.held(), b.held())
	}
	return roots
}

// nanKeyed are graphs whose maps hold NaN keys, directly, in an
// interface and inside a struct key, so their entries' values cannot be
// looked up.
var nanKeyed = [][]any{
	{map[float64]int{math.NaN(): 1, math.NaN(): 2, 1: 3}},
	{map[any]int{math.NaN(): 1, "a": 2, float32(math.NaN()): 3}},
	{map[struct{ F float64 }]string{{math.NaN()}: "x", {2}: "y"}},
	{&struct{ M map[float64]*kNode }{map[float64]*kNode{math.NaN(): {I: 1}, 0: {I: 2}}}},
	{&kNode{MF: map[float64]int{math.NaN(): 7}, MI: map[any]kInner{math.NaN(): {A: 1}}}},
}

// checkReference fails unless the kernel, on a pooled walker and on a
// Scratch, agrees with the reference on roots.
func checkReference(t *testing.T, s *Scratch, roots []any) {
	t.Helper()
	want := refFingerprint(roots...)
	if got := Fingerprint(roots...); got != want {
		t.Fatalf("kernel FP{%#x, %#x} != reference FP{%#x, %#x}", got[0], got[1], want[0], want[1])
	}
	if got := s.Fingerprint(roots...); got != want {
		t.Fatalf("Scratch kernel FP{%#x, %#x} != reference FP{%#x, %#x}", got[0], got[1], want[0], want[1])
	}
}

// FuzzFingerprintReference: on any graph the generator makes from the
// input, the offset kernel folds exactly the hash of the reflect
// reference.
func FuzzFingerprintReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 14, 4, 14, 5, 14, 6, 14, 13, 14, 10, 20, 18, 20, 23})
	f.Add([]byte{3, 6, 8, 6, 9, 6, 0, 7, 0, 7, 1, 19, 0, 3, 22, 1, 2, 3})
	f.Add([]byte{7, 11, 3, 12, 2, 13, 3, 21, 2, 15, 2, 15, 1, 17, 0, 16, 1, 1})
	f.Add([]byte{0, 0, 23, 3, 0, 5, 4, 6, 1, 9, 7, 0, 24, 2, 0, 1, 1, 0, 1, 2})
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	var s Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReference(t, &s, kRoots(data))
	})
}

// TestFingerprintMatchesReference runs the kernel against the reference
// on the pinned corpus and on random generator inputs, so plain go test
// covers what the fuzz target explores.
func TestFingerprintMatchesReference(t *testing.T) {
	var s Scratch
	for _, tc := range pinnedCorpus {
		checkReference(t, &s, tc.roots())
	}
	for _, roots := range nanKeyed {
		checkReference(t, &s, roots)
	}
	r := rand.New(rand.NewSource(36))
	for i := 0; i < 300; i++ {
		data := make([]byte, r.Intn(600))
		r.Read(data)
		checkReference(t, &s, kRoots(data))
	}
}

// TestTypeWord: the type word the kernel reads off an interface is the
// one planCache derives from a reflect.Type, and maps back to it.
func TestTypeWord(t *testing.T) {
	var st fmt.Stringer = kText{}
	for _, v := range []any{0, "s", &kNode{}, kNode{}, kDirect{}, map[int]int{}, [1]*int{}, st, struct{}{}} {
		typ := reflect.TypeOf(v)
		if w := (*eface)(unsafe.Pointer(&v)).typ; typeWord(typ) != w {
			t.Errorf("%v: typeWord %p, interface type word %p", typ, typeWord(typ), w)
		}
		if typeOfWord(typeWord(typ)) != typ {
			t.Errorf("%v: typeOfWord(typeWord) is %v", typ, typeOfWord(typeWord(typ)))
		}
	}
	// A non-empty interface's itab names the same dynamic type.
	type holder struct{ S fmt.Stringer }
	h := holder{S: kText{}}
	tab := (*eface)(unsafe.Pointer(&h.S)).typ
	if (*itab)(tab).typ != typeWord(reflect.TypeOf(kText{})) {
		t.Error("the itab's type word is not kText's")
	}
	if !typeplan.For(reflect.TypeOf(h)).Fields[0].Plan.Itab {
		t.Error("fmt.Stringer's plan must be marked Itab")
	}
}
