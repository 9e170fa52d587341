// Package regexplite is a small backtracking regular-expression engine in
// the style of Jakarta Regexp, the library tested in the paper's Java
// evaluation. It supports literals, '.', character classes with ranges and
// negation, the escapes \d \w \s, repetition (* + ?), alternation and
// capturing groups.
//
// The engine is deliberately stateful in the legacy way: the parser
// advances a position cursor and builds the AST incrementally, and the
// matcher mutates a capture table during backtracking — both natural
// sources of failure non-atomicity under exception injection.
package regexplite

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mRegExpCompile     = core.Method("RegExp.Compile")
	mRegExpMatch       = core.Method("RegExp.Match")
	mRegExpSearch      = core.Method("RegExp.Search")
	mRegExpMatchPrefix = core.Method("RegExp.MatchPrefix")
)

// Node is a compiled regular-expression AST node. Concrete nodes use
// exported fields so the checkpointing engine can snapshot compiled
// programs.
type Node interface {
	// kind returns a short tag used in debugging output.
	kind() string
}

// CharNode matches one literal byte.
type CharNode struct {
	Ch byte
}

//failatomic:ignore tag method
func (*CharNode) kind() string { return "char" }

// AnyNode matches any single byte except newline.
type AnyNode struct{}

//failatomic:ignore tag method
func (*AnyNode) kind() string { return "any" }

// ClassRange is one low-high range of a character class.
type ClassRange struct {
	Lo, Hi byte
}

// ClassNode matches one byte against a set of ranges.
type ClassNode struct {
	Ranges []ClassRange
	Negate bool
}

//failatomic:ignore tag method
func (*ClassNode) kind() string { return "class" }

// SeqNode matches a sequence of sub-patterns.
type SeqNode struct {
	Nodes []Node
}

//failatomic:ignore tag method
func (*SeqNode) kind() string { return "seq" }

// AltNode matches either branch.
type AltNode struct {
	Left  Node
	Right Node
}

//failatomic:ignore tag method
func (*AltNode) kind() string { return "alt" }

// RepeatNode matches Min..Max occurrences of Sub (Max < 0 = unbounded).
type RepeatNode struct {
	Sub Node
	Min int
	Max int
}

//failatomic:ignore tag method
func (*RepeatNode) kind() string { return "repeat" }

// GroupNode is a capturing group.
type GroupNode struct {
	Index int
	Sub   Node
}

//failatomic:ignore tag method
func (*GroupNode) kind() string { return "group" }

// EmptyNode matches the empty string.
type EmptyNode struct{}

//failatomic:ignore tag method
func (*EmptyNode) kind() string { return "empty" }

// AnchorNode matches a position: start of input ('^') or end ('$').
type AnchorNode struct {
	End bool
}

//failatomic:ignore tag method
func (*AnchorNode) kind() string { return "anchor" }

// RegExp is a compiled pattern.
type RegExp struct {
	Pattern string
	Root    Node
	Groups  int
	Version int
}

// Compile parses pattern into a RegExp; syntax errors throw ParseError.
func Compile(pattern string) *RegExp {
	defer mRegExpCompile.Enter(nil)()
	p := NewREParser(pattern)
	root := p.ParseAlternation()
	if p.Pos != len(p.Pattern) {
		fault.Throw(fault.ParseError, "RegExp.Compile",
			"unexpected %q at %d", p.Pattern[p.Pos], p.Pos)
	}
	return &RegExp{Pattern: pattern, Root: root, Groups: p.Groups}
}

// Match reports whether the whole input matches the pattern.
func (re *RegExp) Match(input string) bool {
	defer mRegExpMatch.Enter(re)()
	m := NewMatcher(re, input)
	return m.MatchAt(0, true)
}

// Search returns the byte offset of the first match of the pattern inside
// input, or -1.
func (re *RegExp) Search(input string) int {
	defer mRegExpSearch.Enter(re)()
	for at := 0; at <= len(input); at++ {
		m := NewMatcher(re, input)
		if m.MatchAt(at, false) {
			return at
		}
	}
	return -1
}

// MatchPrefix reports whether a match starts at the beginning of input and
// returns its length (-1 when there is no match).
func (re *RegExp) MatchPrefix(input string) int {
	defer mRegExpMatchPrefix.Enter(re)()
	m := NewMatcher(re, input)
	if !m.MatchAt(0, false) {
		return -1
	}
	return m.End
}
