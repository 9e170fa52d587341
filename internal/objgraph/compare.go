package objgraph

import (
	"math"
	"strconv"
)

// Equal reports whether two captured graphs are isomorphic: same structure,
// same scalar values, same aliasing. This is the atomicity test of
// Definition 2 — the "before" and "after" object graphs must be identical.
func Equal(a, b *Graph) bool {
	return Diff(a, b) == ""
}

// Diff returns a human-readable description of the first difference between
// two graphs, or "" if they are equal. The path uses edge labels, e.g.
// "recv.*.head.*.next: int 3 != 4".
func Diff(a, b *Graph) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return "one graph is nil"
	}
	if len(a.roots) != len(b.roots) {
		return rootCountDiff(len(a.roots), len(b.roots))
	}
	w := getWalker()
	d := ""
	for i := range a.roots {
		if d = w.diffNode(a.roots[i], b.roots[i]); d != "" {
			break
		}
	}
	w.release()
	return d
}

// diffNode compares the subtrees at a and b in pre-order, keeping a's
// ancestors on the walker's stack for the path of a difference.
func (w *walker) diffNode(a, b *Node) string {
	w.stack = append(w.stack, a)
	if d := w.headDiff(a, b, len(b.Children)); d != "" {
		return d
	}
	for i := range a.Children {
		if d := w.diffNode(a.Children[i], b.Children[i]); d != "" {
			return d
		}
	}
	w.pop()
	return ""
}

// headDiff compares graph node a, on top of the stack, with b, field by
// field in a fixed order, and describes the first field that differs.
// b's Children are not read: nkids is its child count, so b may be a
// live node's header that was never materialized (DiffLive). The message
// is built with strconv appends rather than fmt (whose printer pool a
// collection empties), byte for byte the fmt rendering it replaces: kind
// and type as %s, labels and strings as %q, counts and alias ids as %d,
// the backref flags as %v.
func (w *walker) headDiff(a, b *Node, nkids int) string {
	var buf [192]byte
	d := buf[:0]
	switch {
	case a.Kind != b.Kind:
		d = append(w.appendPath(d), ": kind "...)
		d = append(append(append(d, a.Kind.String()...), " != "...), b.Kind.String()...)
	case a.Type != b.Type:
		d = append(w.appendPath(d), ": type "...)
		d = append(append(append(d, a.Type...), " != "...), b.Type...)
	case a.Label != b.Label:
		d = append(w.appendPath(d), ": label "...)
		d = strconv.AppendQuote(append(strconv.AppendQuote(d, a.Label), " != "...), b.Label)
	case a.Ref != b.Ref || a.Backref != b.Backref:
		// Alias ids are assigned in deterministic traversal order, so
		// equal graphs have identical Ref numbering; a mismatch means the
		// aliasing structure changed.
		d = append(w.appendPath(d), ": aliasing changed (ref "...)
		d = appendRef(d, a)
		d = append(appendRef(append(d, " != "...), b), ')')
	case a.Bits != b.Bits:
		// Chan/func identity is environment-dependent across process runs
		// but stable within one run, which is the only scope we compare in.
		d = append(append(append(w.appendPath(d), ": "...), a.Kind.String()...), ' ')
		d = appendBits(append(appendBits(d, a), " != "...), b)
	case a.Str != b.Str:
		d = append(append(append(w.appendPath(d), ": "...), a.Kind.String()...), ' ')
		d = strconv.AppendQuote(append(strconv.AppendQuote(d, a.Str), " != "...), b.Str)
	case len(a.Children) != nkids:
		d = append(w.appendPath(d), ": child count "...)
		d = strconv.AppendInt(append(strconv.AppendInt(d, int64(len(a.Children)), 10), " != "...), int64(nkids), 10)
	default:
		return ""
	}
	return string(d)
}

// appendRef appends n's alias id and backref flag as "%d/%v" renders
// them.
func appendRef(d []byte, n *Node) []byte {
	return strconv.AppendBool(append(strconv.AppendInt(d, int64(n.Ref), 10), '/'), n.Backref)
}

// rootCountDiff describes graphs with different numbers of roots.
func rootCountDiff(a, b int) string {
	d := strconv.AppendInt([]byte("root count "), int64(a), 10)
	return string(strconv.AppendInt(append(d, " != "...), int64(b), 10))
}

// pop removes the node on top of the stack, clearing its slot.
func (w *walker) pop() {
	last := len(w.stack) - 1
	w.stack[last] = nil
	w.stack = w.stack[:last]
}

// appendPath appends the edge-label path from the root to the node on top
// of the stack: the root's label, then each descendant's, an element's
// "[i]" appended as is and any other label after a dot. It runs once per
// diff, at the first difference.
func (w *walker) appendPath(d []byte) []byte {
	d = append(d, w.stack[0].Label...)
	for _, n := range w.stack[1:] {
		if n.Label == "" {
			continue
		}
		if n.Label[0] != '[' {
			d = append(d, '.')
		}
		d = append(d, n.Label...)
	}
	return d
}

// appendBits appends n's scalar payload in its kind's notation.
func appendBits(d []byte, n *Node) []byte {
	switch n.Kind {
	case KindBool:
		return strconv.AppendBool(d, n.Bits == 1)
	case KindInt:
		return strconv.AppendInt(d, int64(n.Bits), 10)
	case KindFloat:
		return strconv.AppendFloat(d, math.Float64frombits(n.Bits), 'g', -1, 64)
	default:
		return strconv.AppendUint(d, n.Bits, 10)
	}
}
