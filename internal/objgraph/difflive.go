package objgraph

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unsafe"
)

// DiffLive returns Diff(g, Capture(roots...)) without building the second
// graph. A detecting call captures its before-state and, when an
// exception unwinds it, needs only the first difference from its
// after-state; DiffLive walks the live roots in Capture's canonical
// traversal (same alias numbering, same map-entry order, same payloads)
// and compares each value's node header against g's node at the same
// position as it goes. No Node is allocated, and the path to a difference
// is spelled only once one is found.
func DiffLive(g *Graph, roots ...any) string {
	if g == nil {
		return "one graph is nil"
	}
	if len(g.roots) != len(roots) {
		return fmt.Sprintf("root count %d != %d", len(g.roots), len(roots))
	}
	w := getWalker()
	d := ""
	for i, r := range roots {
		var v reflect.Value
		var pl *typePlan
		if r != nil {
			v = reflect.ValueOf(r)
			pl = planFor(v.Type())
		}
		if d = w.diffLive(g.roots[i], v, pl, rootLabel(i)); d != "" {
			break
		}
	}
	w.release()
	return d
}

// diffLive compares graph node a with the node Capture would encode for v
// (pl is the plan of v's type, label its edge label), then their
// children. It mirrors encoder.encode case for case: b receives exactly
// the header fields encode sets, and nkids the length its Children would
// have.
func (w *walker) diffLive(a *Node, v reflect.Value, pl *typePlan, label string) string {
	w.stack = append(w.stack, a)
	b := Node{Kind: KindNil, Label: label}
	nkids := 0
	if v.IsValid() {
		b.Type = pl.typeStr
		switch pl.kind {
		case reflect.Bool:
			b.Kind = KindBool
			if v.Bool() {
				b.Bits = 1
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b.Kind = KindInt
			b.Bits = uint64(v.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			b.Kind = KindUint
			b.Bits = v.Uint()
		case reflect.Float32, reflect.Float64:
			b.Kind = KindFloat
			b.Bits = math.Float64bits(v.Float())
		case reflect.Complex64, reflect.Complex128:
			b.Kind = KindComplex
			b.Str = strconv.FormatComplex(v.Complex(), 'g', -1, 128)
		case reflect.String:
			b.Kind = KindString
			b.Str = v.String()
		case reflect.Pointer:
			if v.IsNil() {
				break
			}
			b.Kind = KindPointer
			b.Ref, b.Backref = w.refs.intern(v.Pointer(), pl, 0)
			if !b.Backref {
				nkids = 1
			}
		case reflect.Slice:
			if v.IsNil() {
				break
			}
			b.Kind = KindSlice
			n := v.Len()
			b.Ref, b.Backref = w.refs.intern(v.Pointer(), pl, n)
			if b.Backref {
				break
			}
			b.Bits = uint64(n)
			if pl.byteElem {
				// A view, not a copy: headDiff only compares and
				// formats it before the walk moves on.
				bs := w.bytesOf(v)
				b.Str = unsafe.String(unsafe.SliceData(bs), len(bs))
			} else {
				nkids = n
			}
		case reflect.Array:
			b.Kind = KindArray
			b.Bits = uint64(v.Len())
			nkids = v.Len()
		case reflect.Map:
			if v.IsNil() {
				break
			}
			b.Kind = KindMap
			b.Ref, b.Backref = w.refs.intern(v.Pointer(), pl, 0)
			if !b.Backref {
				b.Bits = uint64(v.Len())
				nkids = v.Len()
			}
		case reflect.Struct:
			b.Kind = KindStruct
			nkids = len(pl.fields)
		case reflect.Interface:
			if !v.IsNil() {
				b.Kind = KindInterface
				nkids = 1
			}
		case reflect.Chan:
			if !v.IsNil() {
				b.Kind = KindChan
				b.Bits = uint64(v.Pointer())
			}
		case reflect.Func:
			if !v.IsNil() {
				b.Kind = KindFunc
				b.Bits = uint64(v.Pointer())
			}
		default:
			b.Kind = KindOpaque
			if v.CanAddr() || pl.kind == reflect.UnsafePointer {
				b.Str = fmt.Sprintf("%v-opaque", pl.kind)
			}
		}
	}
	if d := w.headDiff(a, &b, nkids); d != "" {
		return d
	}
	if nkids > 0 {
		if d := w.diffLiveChildren(a, v, pl); d != "" {
			return d
		}
	}
	w.pop()
	return ""
}

// diffLiveChildren compares a's children with those of the live value v,
// whose header matched a's.
func (w *walker) diffLiveChildren(a *Node, v reflect.Value, pl *typePlan) string {
	switch pl.kind {
	case reflect.Pointer:
		return w.diffLive(a.Children[0], v.Elem(), pl.elem, "*")
	case reflect.Slice, reflect.Array:
		for i := range a.Children {
			if d := w.diffLive(a.Children[i], v.Index(i), pl.elem, indexLabel(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		base, ents := w.pushEntries(v)
		for i, ent := range ents {
			e := a.Children[i]
			w.stack = append(w.stack, e)
			if d := w.headDiff(e, &Node{Kind: KindEntry, Label: ent.sig}, 1); d != "" {
				return d
			}
			if d := w.diffLive(e.Children[0], v.MapIndex(ent.key), pl.elem, "value"); d != "" {
				return d
			}
			w.pop()
		}
		w.popEntries(base)
	case reflect.Struct:
		for i, f := range pl.fields {
			if d := w.diffLive(a.Children[i], v.Field(f.index), f.plan, f.name); d != "" {
				return d
			}
		}
	case reflect.Interface:
		dyn := v.Elem()
		return w.diffLive(a.Children[0], dyn, planFor(dyn.Type()), "dyn")
	}
	return ""
}
