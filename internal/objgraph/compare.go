package objgraph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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
		return fmt.Sprintf("root count %d != %d", len(a.roots), len(b.roots))
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
// live node's header that was never materialized (DiffLive).
func (w *walker) headDiff(a, b *Node, nkids int) string {
	switch {
	case a.Kind != b.Kind:
		return fmt.Sprintf("%s: kind %s != %s", w.path(), a.Kind, b.Kind)
	case a.Type != b.Type:
		return fmt.Sprintf("%s: type %s != %s", w.path(), a.Type, b.Type)
	case a.Label != b.Label:
		return fmt.Sprintf("%s: label %q != %q", w.path(), a.Label, b.Label)
	case a.Ref != b.Ref || a.Backref != b.Backref:
		// Alias ids are assigned in deterministic traversal order, so
		// equal graphs have identical Ref numbering; a mismatch means the
		// aliasing structure changed.
		return fmt.Sprintf("%s: aliasing changed (ref %d/%v != %d/%v)",
			w.path(), a.Ref, a.Backref, b.Ref, b.Backref)
	case a.Bits != b.Bits:
		// Chan/func identity is environment-dependent across process runs
		// but stable within one run, which is the only scope we compare in.
		return fmt.Sprintf("%s: %s %s != %s", w.path(), a.Kind, formatBits(a), formatBits(b))
	case a.Str != b.Str:
		return fmt.Sprintf("%s: %s %q != %q", w.path(), a.Kind, a.Str, b.Str)
	case len(a.Children) != nkids:
		return fmt.Sprintf("%s: child count %d != %d", w.path(), len(a.Children), nkids)
	}
	return ""
}

// pop removes the node on top of the stack, clearing its slot.
func (w *walker) pop() {
	last := len(w.stack) - 1
	w.stack[last] = nil
	w.stack = w.stack[:last]
}

// path spells the edge-label path from the root to the node on top of
// the stack: the root's label, then each descendant's, an element's
// "[i]" appended as is and any other label after a dot. It runs once per
// diff, at the first difference.
func (w *walker) path() string {
	var sb strings.Builder
	sb.WriteString(w.stack[0].Label)
	for _, n := range w.stack[1:] {
		if n.Label == "" {
			continue
		}
		if n.Label[0] != '[' {
			sb.WriteByte('.')
		}
		sb.WriteString(n.Label)
	}
	return sb.String()
}

func formatBits(n *Node) string {
	switch n.Kind {
	case KindBool:
		return strconv.FormatBool(n.Bits == 1)
	case KindInt:
		return strconv.FormatInt(int64(n.Bits), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(n.Bits), 'g', -1, 64)
	default:
		return strconv.FormatUint(n.Bits, 10)
	}
}
