package objgraph

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"failatomic/internal/typeplan"
)

// encoder is Capture's traversal: a walker, the free list its nodes are
// drawn from (nil: each is allocated), and the statistics of the graph
// being built.
type encoder struct {
	*walker
	free  *freeList
	nodes int
	bytes int
}

// Capture encodes the object graphs rooted at the given values into a
// single immutable Graph. Roots are typically the receiver of a wrapped
// method plus any by-reference arguments ("all arguments that are passed in
// as non-constant references are also part of this copy", §4.1).
func Capture(roots ...any) *Graph {
	w := getWalker()
	g := w.capture(nil, roots)
	w.release()
	return g
}

// capture is Capture on w, drawing the graph and its nodes from free.
func (w *walker) capture(free *freeList, roots []any) *Graph {
	enc := encoder{walker: w, free: free}
	g := free.graph(len(roots))
	for i, r := range roots {
		v, pl := enc.rootValue(r)
		g.roots = append(g.roots, enc.encode(v, pl, rootLabel(i)))
	}
	g.nodes = enc.nodes
	g.bytes = enc.bytes
	return g
}

// rootValue returns root r and its plan; a nil root is the invalid
// Value, whose node is a nil leaf.
func (w *walker) rootValue(r any) (reflect.Value, *typeplan.Plan) {
	v := reflect.ValueOf(r)
	if !v.IsValid() {
		return v, nil
	}
	return v, w.dyn.planOf(v.Type())
}

// encode materializes v's node; pl is the plan of v's type.
func (e *encoder) encode(v reflect.Value, pl *typeplan.Plan, label string) *Node {
	e.nodes++
	n := e.free.node()
	kids := e.head(n, v, pl, label)
	switch n.Kind {
	case KindBool, KindInt, KindUint, KindFloat, KindComplex:
		e.bytes += pl.Size
	case KindString:
		e.bytes += len(n.Str)
	case KindSlice:
		// A byte slice's payload is a view of live or scratch memory.
		n.Str = strings.Clone(n.Str)
		e.bytes += len(n.Str)
	}
	if kids == 0 {
		return n
	}
	n.Children = children(n.Children, kids)
	switch pl.Kind {
	case reflect.Pointer:
		n.Children[0] = e.encode(v.Elem(), pl.Elem, "*")
	case reflect.Slice, reflect.Array:
		for i := range n.Children {
			n.Children[i] = e.encode(v.Index(i), pl.Elem, indexLabel(i))
		}
	case reflect.Map:
		base, ents := e.pushEntries(v)
		for i, ent := range ents {
			e.nodes++
			en := e.free.node()
			en.Kind, en.Label = KindEntry, ent.sig
			en.Children = children(en.Children, 1)
			en.Children[0] = e.encode(v.MapIndex(ent.key), pl.Elem, "value")
			n.Children[i] = en
		}
		e.popEntries(base)
	case reflect.Struct:
		for i, f := range pl.Fields {
			n.Children[i] = e.encode(v.Field(f.Index), f.Plan, f.Name)
		}
	case reflect.Interface:
		dyn := v.Elem()
		n.Children[0] = e.encode(dyn, e.dyn.planOf(dyn.Type()), "dyn")
	}
	return n
}

// children returns a child slice of length kids, in buf's array when it
// has room (a node drawn from a free list keeps its old capacity).
func children(buf []*Node, kids int) []*Node {
	if cap(buf) >= kids {
		return buf[:kids]
	}
	return make([]*Node, kids)
}

// head is the one place the canonical traversal decides a live value's
// node: it fills n's header (Kind, Type, Label, Ref/Backref, Bits, Str)
// for v, whose plan is pl, and returns the node's child count. Capture
// materializes the header and DiffLive compares it with the captured one.
// n must be zero. A byte slice's Str is a view of v or of the walker's
// scratch, valid until the walk moves on; Capture copies it.
func (w *walker) head(n *Node, v reflect.Value, pl *typeplan.Plan, label string) (kids int) {
	n.Kind = KindNil
	n.Label = label
	if !v.IsValid() {
		return 0
	}
	n.Type = pl.TypeStr
	switch pl.Kind {
	case reflect.Bool:
		n.Kind = KindBool
		if v.Bool() {
			n.Bits = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n.Kind = KindInt
		n.Bits = uint64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		n.Kind = KindUint
		n.Bits = v.Uint()
	case reflect.Float32, reflect.Float64:
		n.Kind = KindFloat
		n.Bits = math.Float64bits(v.Float())
	case reflect.Complex64, reflect.Complex128:
		n.Kind = KindComplex
		n.Str = strconv.FormatComplex(v.Complex(), 'g', -1, 128)
	case reflect.String:
		n.Kind = KindString
		n.Str = v.String()
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		n.Kind = KindPointer
		n.Ref, n.Backref = w.refs.Intern(v.Pointer(), pl, 0, 0)
		if !n.Backref {
			kids = 1
		}
	case reflect.Slice:
		if v.IsNil() {
			return 0
		}
		n.Kind = KindSlice
		l := v.Len()
		n.Ref, n.Backref = w.refs.Intern(v.Pointer(), pl, l, 0)
		if n.Backref {
			return 0
		}
		n.Bits = uint64(l)
		// Bulk fast path: byte slices encode as one payload (content
		// equality; a difference reports at the slice, not the index).
		if pl.ByteElem {
			bs := w.bytesOf(v)
			n.Str = unsafe.String(unsafe.SliceData(bs), len(bs))
		} else {
			kids = l
		}
	case reflect.Array:
		n.Kind = KindArray
		n.Bits = uint64(v.Len())
		kids = v.Len()
	case reflect.Map:
		if v.IsNil() {
			return 0
		}
		n.Kind = KindMap
		n.Ref, n.Backref = w.refs.Intern(v.Pointer(), pl, 0, 0)
		if !n.Backref {
			n.Bits = uint64(v.Len())
			kids = v.Len()
		}
	case reflect.Struct:
		n.Kind = KindStruct
		kids = len(pl.Fields)
	case reflect.Interface:
		if !v.IsNil() {
			n.Kind = KindInterface
			kids = 1
		}
	case reflect.Chan:
		if !v.IsNil() {
			n.Kind = KindChan
			n.Bits = uint64(v.Pointer())
		}
	case reflect.Func:
		if !v.IsNil() {
			n.Kind = KindFunc
			n.Bits = uint64(v.Pointer())
		}
	default:
		// UnsafePointer and anything future: identity-compared opaque.
		n.Kind = KindOpaque
		if v.CanAddr() || pl.Kind == reflect.UnsafePointer {
			n.Str = pl.Kind.String() + "-opaque"
		}
	}
	return kids
}

// keySig returns a canonical string for a map key, used only to order map
// entries deterministically and to label entry nodes. Pointer keys sort by
// the *content* of their pointee (bounded depth), matching the paper's
// serialization-based comparison where graphs are compared structurally,
// not by address. Two distinct keys with identical content sigs sort
// ambiguously; this is a documented residual limitation.
func keySig(v reflect.Value) string {
	return keySigDepth(v, 8)
}

func keySigDepth(v reflect.Value, depth int) string {
	if depth <= 0 {
		return "deep"
	}
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return "i" + strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return "u" + strconv.FormatUint(v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return "f" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Complex64, reflect.Complex128:
		return "c" + strconv.FormatComplex(v.Complex(), 'g', -1, 128)
	case reflect.String:
		return "s" + v.String()
	case reflect.Pointer:
		if v.IsNil() {
			return "p0"
		}
		return "p*" + keySigDepth(v.Elem(), depth-1)
	case reflect.Chan, reflect.UnsafePointer:
		if v.IsNil() {
			return "h0"
		}
		return "h" + strconv.FormatUint(uint64(v.Pointer()), 16)
	case reflect.Interface:
		if v.IsNil() {
			return "n"
		}
		return "I" + v.Elem().Type().String() + ":" + keySigDepth(v.Elem(), depth-1)
	case reflect.Array:
		sig := "a["
		for i := 0; i < v.Len(); i++ {
			sig += keySigDepth(v.Index(i), depth-1) + ","
		}
		return sig + "]"
	case reflect.Struct:
		sig := "t{"
		for i := 0; i < v.NumField(); i++ {
			sig += v.Type().Field(i).Name + "=" + keySigDepth(v.Field(i), depth-1) + ","
		}
		return sig + "}"
	default:
		return "?" + v.Kind().String()
	}
}
