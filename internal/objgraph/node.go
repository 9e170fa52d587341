// Package objgraph implements the paper's Definition 1: the object graph of
// a value, with aliasing structure, used to decide failure atomicity
// (Definition 2).
//
// Capture encodes the object graph rooted at one or more values into an
// immutable Graph. Two Graphs captured before a method call and after its
// exceptional return are compared with Equal; Diff reports the path to the
// first difference for the programmer-facing report. DiffLive reports the
// same path from the before-graph and the live values, without capturing
// the after-state.
//
// Every traversal runs from the per-type plans of internal/typeplan, the
// ones checkpoint's deep copy runs from too, and numbers references with
// its RefTable.
//
// The encoder reads unexported fields (reflection permits reading, not
// writing), so comparison covers private state. Anything the encoder cannot
// model (channels, funcs, unsafe pointers) is compared by identity, which
// preserves the paper's one-sided guarantee: an unseen mutation can hide
// non-atomicity but can never cause a failure atomic method to be reported
// as failure non-atomic.
package objgraph

// Kind classifies a node in an object graph.
type Kind uint8

// Node kinds. Start at 1 so the zero value is invalid (catches
// uninitialized nodes in tests).
const (
	KindNil Kind = iota + 1
	KindBool
	KindInt
	KindUint
	KindFloat
	KindComplex
	KindString
	KindPointer
	KindSlice
	KindArray
	KindMap
	KindEntry
	KindStruct
	KindInterface
	KindChan
	KindFunc
	KindOpaque
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindUint:
		return "uint"
	case KindFloat:
		return "float"
	case KindComplex:
		return "complex"
	case KindString:
		return "string"
	case KindPointer:
		return "pointer"
	case KindSlice:
		return "slice"
	case KindArray:
		return "array"
	case KindMap:
		return "map"
	case KindEntry:
		return "entry"
	case KindStruct:
		return "struct"
	case KindInterface:
		return "interface"
	case KindChan:
		return "chan"
	case KindFunc:
		return "func"
	case KindOpaque:
		return "opaque"
	default:
		return "invalid"
	}
}

// Node is one vertex of an encoded object graph. A node with Ref != 0 and
// Backref true refers to an earlier node with the same Ref id (aliasing per
// Definition 1: two pointers to the same object share one child node).
type Node struct {
	// Kind is the node class.
	Kind Kind
	// Type is the Go type of the encoded value ("" for synthetic nodes).
	Type string
	// Label is the edge label from the parent: a field name, "[i]" for an
	// element, or a canonical map-key string for entries.
	Label string
	// Bits holds the scalar payload for bool/int/uint/float and the
	// identity for chan/func nodes.
	Bits uint64
	// Str holds string payloads and complex-number representations.
	Str string
	// Ref is a nonzero alias id for reference nodes (pointers, maps,
	// slices). The first occurrence carries the children; later
	// occurrences set Backref and carry none.
	Ref int
	// Backref marks a repeated occurrence of an already-encoded reference.
	Backref bool
	// Children are the encoded successors, in deterministic order.
	Children []*Node
}

// Graph is an immutable encoded object graph, until the only holder of
// it releases it to a Scratch (Scratch.Release).
type Graph struct {
	roots []*Node
	nodes int
	bytes int
}

// Roots returns the root nodes, one per captured value.
func (g *Graph) Roots() []*Node { return g.roots }

// Nodes returns the number of nodes in the graph.
func (g *Graph) Nodes() int { return g.nodes }

// Bytes returns the approximate payload size of the graph in bytes. It is
// used for checkpoint-size accounting (Figure 5).
func (g *Graph) Bytes() int { return g.bytes }
