package objgraph

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// encoder is Capture's traversal: the pooled walker plus the statistics
// of the graph being built.
type encoder struct {
	*walker
	nodes int
	bytes int
}

// Capture encodes the object graphs rooted at the given values into a
// single immutable Graph. Roots are typically the receiver of a wrapped
// method plus any by-reference arguments ("all arguments that are passed in
// as non-constant references are also part of this copy", §4.1).
func Capture(roots ...any) *Graph {
	enc := encoder{walker: getWalker()}
	g := &Graph{roots: make([]*Node, 0, len(roots))}
	for i, r := range roots {
		if r == nil {
			g.roots = append(g.roots, enc.leaf(KindNil, "", rootLabel(i)))
			continue
		}
		v := reflect.ValueOf(r)
		g.roots = append(g.roots, enc.encode(v, planFor(v.Type()), rootLabel(i)))
	}
	g.nodes = enc.nodes
	g.bytes = enc.bytes
	enc.release()
	return g
}

func (e *encoder) leaf(kind Kind, typ, label string) *Node {
	e.nodes++
	return &Node{Kind: kind, Type: typ, Label: label}
}

// encode materializes v's node; pl is the plan of v's type.
func (e *encoder) encode(v reflect.Value, pl *typePlan, label string) *Node {
	if !v.IsValid() {
		return e.leaf(KindNil, "", label)
	}
	typ := pl.typeStr
	switch pl.kind {
	case reflect.Bool:
		n := e.leaf(KindBool, typ, label)
		if v.Bool() {
			n.Bits = 1
		}
		e.bytes++
		return n
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := e.leaf(KindInt, typ, label)
		n.Bits = uint64(v.Int())
		e.bytes += pl.size
		return n
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		n := e.leaf(KindUint, typ, label)
		n.Bits = v.Uint()
		e.bytes += pl.size
		return n
	case reflect.Float32, reflect.Float64:
		n := e.leaf(KindFloat, typ, label)
		n.Bits = math.Float64bits(v.Float())
		e.bytes += pl.size
		return n
	case reflect.Complex64, reflect.Complex128:
		n := e.leaf(KindComplex, typ, label)
		n.Str = strconv.FormatComplex(v.Complex(), 'g', -1, 128)
		e.bytes += pl.size
		return n
	case reflect.String:
		n := e.leaf(KindString, typ, label)
		n.Str = v.String()
		e.bytes += len(n.Str)
		return n
	case reflect.Pointer:
		if v.IsNil() {
			return e.leaf(KindNil, typ, label)
		}
		id, seen := e.refs.intern(v.Pointer(), pl, 0)
		if seen {
			n := e.leaf(KindPointer, typ, label)
			n.Ref = id
			n.Backref = true
			return n
		}
		n := e.leaf(KindPointer, typ, label)
		n.Ref = id
		n.Children = []*Node{e.encode(v.Elem(), pl.elem, "*")}
		return n
	case reflect.Slice:
		if v.IsNil() {
			return e.leaf(KindNil, typ, label)
		}
		id, seen := e.refs.intern(v.Pointer(), pl, v.Len())
		if seen {
			n := e.leaf(KindSlice, typ, label)
			n.Ref = id
			n.Backref = true
			return n
		}
		n := e.leaf(KindSlice, typ, label)
		n.Ref = id
		n.Bits = uint64(v.Len())
		// Bulk fast path: byte slices encode as one payload (content
		// equality; a difference reports at the slice, not the index).
		if pl.byteElem {
			n.Str = string(e.bytesOf(v))
			e.bytes += v.Len()
			return n
		}
		n.Children = make([]*Node, v.Len())
		for i := 0; i < v.Len(); i++ {
			n.Children[i] = e.encode(v.Index(i), pl.elem, indexLabel(i))
		}
		return n
	case reflect.Array:
		n := e.leaf(KindArray, typ, label)
		n.Bits = uint64(v.Len())
		n.Children = make([]*Node, v.Len())
		for i := 0; i < v.Len(); i++ {
			n.Children[i] = e.encode(v.Index(i), pl.elem, indexLabel(i))
		}
		return n
	case reflect.Map:
		if v.IsNil() {
			return e.leaf(KindNil, typ, label)
		}
		id, seen := e.refs.intern(v.Pointer(), pl, 0)
		if seen {
			n := e.leaf(KindMap, typ, label)
			n.Ref = id
			n.Backref = true
			return n
		}
		n := e.leaf(KindMap, typ, label)
		n.Ref = id
		n.Bits = uint64(v.Len())
		base, ents := e.pushEntries(v)
		n.Children = make([]*Node, len(ents))
		for i, ent := range ents {
			child := e.leaf(KindEntry, "", ent.sig)
			child.Children = []*Node{e.encode(v.MapIndex(ent.key), pl.elem, "value")}
			n.Children[i] = child
		}
		e.popEntries(base)
		return n
	case reflect.Struct:
		n := e.leaf(KindStruct, typ, label)
		n.Children = make([]*Node, 0, len(pl.fields))
		for _, f := range pl.fields {
			n.Children = append(n.Children, e.encode(v.Field(f.index), f.plan, f.name))
		}
		return n
	case reflect.Interface:
		if v.IsNil() {
			return e.leaf(KindNil, typ, label)
		}
		n := e.leaf(KindInterface, typ, label)
		dyn := v.Elem()
		n.Children = []*Node{e.encode(dyn, planFor(dyn.Type()), "dyn")}
		return n
	case reflect.Chan:
		if v.IsNil() {
			return e.leaf(KindNil, typ, label)
		}
		n := e.leaf(KindChan, typ, label)
		n.Bits = uint64(v.Pointer())
		return n
	case reflect.Func:
		if v.IsNil() {
			return e.leaf(KindNil, typ, label)
		}
		n := e.leaf(KindFunc, typ, label)
		n.Bits = uint64(v.Pointer())
		return n
	default:
		// UnsafePointer and anything future: identity-compared opaque.
		n := e.leaf(KindOpaque, typ, label)
		if v.CanAddr() || pl.kind == reflect.UnsafePointer {
			n.Str = fmt.Sprintf("%v-opaque", pl.kind)
		}
		return n
	}
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
