package objgraph

import (
	"reflect"

	"failatomic/internal/typeplan"
)

// DiffLive returns Diff(g, Capture(roots...)) without building the second
// graph. A detecting call captures its before-state and, when an
// exception unwinds it, needs only the first difference from its
// after-state; DiffLive walks the live roots in Capture's canonical
// traversal (same alias numbering, same map-entry order, same payloads)
// and compares each value's header, filled by the same head step Capture
// uses, with g's node at the same position as it goes. No Node is
// allocated, and the path to a difference is spelled only once one is
// found.
func DiffLive(g *Graph, roots ...any) string {
	w := getWalker()
	d := w.diffLiveRoots(g, roots)
	w.release()
	return d
}

// diffLiveRoots is DiffLive on w.
func (w *walker) diffLiveRoots(g *Graph, roots []any) string {
	if g == nil {
		return "one graph is nil"
	}
	if len(g.roots) != len(roots) {
		return rootCountDiff(len(g.roots), len(roots))
	}
	for i, r := range roots {
		v, pl := w.rootValue(r)
		if d := w.diffLive(g.roots[i], v, pl, rootLabel(i)); d != "" {
			return d
		}
	}
	return ""
}

// diffLive compares graph node a with the node Capture would encode for v
// (pl is the plan of v's type, label its edge label), then their
// children, visited in encoder.encode's order. The child walk is a
// switch of its own, not a helper shared with encode: reading each child
// through such a helper made DiffLive about 45% slower on a 64 B target.
func (w *walker) diffLive(a *Node, v reflect.Value, pl *typeplan.Plan, label string) string {
	w.stack = append(w.stack, a)
	var b Node
	kids := w.head(&b, v, pl, label)
	if d := w.headDiff(a, &b, kids); d != "" {
		return d
	}
	if kids == 0 {
		w.pop()
		return ""
	}
	switch pl.Kind {
	case reflect.Pointer:
		if d := w.diffLive(a.Children[0], v.Elem(), pl.Elem, "*"); d != "" {
			return d
		}
	case reflect.Slice, reflect.Array:
		for i := range a.Children {
			if d := w.diffLive(a.Children[i], v.Index(i), pl.Elem, w.indexLabelView(i)); d != "" {
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
			if d := w.diffLive(e.Children[0], v.MapIndex(ent.key), pl.Elem, "value"); d != "" {
				return d
			}
			w.pop()
		}
		w.popEntries(base)
	case reflect.Struct:
		for i, f := range pl.Fields {
			if d := w.diffLive(a.Children[i], v.Field(f.Index), f.Plan, f.Name); d != "" {
				return d
			}
		}
	case reflect.Interface:
		dyn := v.Elem()
		if d := w.diffLive(a.Children[0], dyn, w.dyn.planOf(dyn.Type()), "dyn"); d != "" {
			return d
		}
	}
	w.pop()
	return ""
}
