// Package collections is a Go port of the early-1990s-style Java
// collections library used in the paper's Java evaluation (Doug Lea's
// `collections` package): CircularList, Dynarray, HashedMap, HashedSet,
// LLMap, LinkedBuffer, LinkedList, RBMap and RBTree.
//
// The structures are written deliberately in the original idiom — element
// screening that throws, version counters bumped at the top of mutators,
// count-then-mutate sequences, incremental link rewiring — because the
// evaluation depends on the *naturally occurring* failure non-atomicity of
// this style. Every method carries the core prologue through a method
// handle resolved at package init (defer mRBMapPut.Enter(m)()), the
// equivalent of the string prologue the source weaver produces from the
// clean sources.
//
// All container state uses exported fields so the masking phase can
// checkpoint and roll back instances.
package collections

import "failatomic/internal/fault"

// Item is the element type of all collections (the Java Object analog).
type Item = any

// Screener decides whether a collection may include an element
// (Lea's `Predicate` screeners).
type Screener func(Item) bool

// Comparator orders two items; it must return <0, 0, >0. Comparators may
// throw IllegalArgument for incomparable items.
type Comparator func(a, b Item) int

// DefaultCompare orders ints and strings and throws IllegalArgument for
// anything else or for mixed types — a realistic organic exception source
// inside tree operations.
func DefaultCompare(a, b Item) int {
	switch av := a.(type) {
	case int:
		bv, ok := b.(int)
		if !ok {
			fault.Throw(fault.IllegalArgument, "collections.DefaultCompare",
				"cannot compare int with %T", b)
		}
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	case string:
		bv, ok := b.(string)
		if !ok {
			fault.Throw(fault.IllegalArgument, "collections.DefaultCompare",
				"cannot compare string with %T", b)
		}
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		default:
			return 0
		}
	default:
		fault.Throw(fault.IllegalArgument, "collections.DefaultCompare",
			"uncomparable type %T", a)
		return 0
	}
}

// HashOf hashes an item for the hashed containers; nil and unhashable
// items throw IllegalElement, mirroring Java's NullPointerException on
// null keys.
func HashOf(v Item) uint32 {
	switch x := v.(type) {
	case nil:
		fault.Throw(fault.IllegalElement, "collections.HashOf", "nil element")
		return 0
	case int:
		h := uint32(x) * 2654435761
		return h ^ h>>16
	case string:
		var h uint32 = 2166136261
		for i := 0; i < len(x); i++ {
			h ^= uint32(x[i])
			h *= 16777619
		}
		return h
	case bool:
		if x {
			return 1231
		}
		return 1237
	default:
		fault.Throw(fault.IllegalElement, "collections.HashOf", "unhashable type %T", x)
		return 0
	}
}

// SameItem is the equality used by the containers (Java equals semantics
// for the supported scalar element types).
func SameItem(a, b Item) bool { return a == b }

// checkElement implements the screening idiom shared by all containers:
// nil elements and screener-rejected elements throw IllegalElement.
func checkElement(method string, screener Screener, v Item) {
	if v == nil {
		fault.Throw(fault.IllegalElement, method, "nil element")
	}
	if screener != nil && !screener(v) {
		fault.Throw(fault.IllegalElement, method, "element %v rejected by screener", v)
	}
}
