package regexplite

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mMatcherNew          = core.Method("Matcher.New")
	mMatcherMatchAt      = core.Method("Matcher.MatchAt")
	mMatcherGroup        = core.Method("Matcher.Group")
	mMatchermatchRepeat  = core.Method("Matcher.matchRepeat")
	mMatchermatchGroup   = core.Method("Matcher.matchGroup")
	mMatcherclassMatches = core.Method("Matcher.classMatches")
)

// Matcher executes one compiled pattern against one input. The capture
// table is mutated during backtracking, legacy style.
type Matcher struct {
	RE    *RegExp
	Input string
	// Caps holds 2*(Groups+1) offsets; slot 0/1 is the whole match.
	Caps []int
	// End is the end offset of the last successful match.
	End int
}

// MaxSteps bounds pathological backtracking.
const MaxSteps = 1 << 16

// NewMatcher returns a matcher for re over input.
func NewMatcher(re *RegExp, input string) *Matcher {
	defer mMatcherNew.Enter(nil)()
	caps := make([]int, 2*(re.Groups+1))
	for i := range caps {
		caps[i] = -1
	}
	return &Matcher{RE: re, Input: input, Caps: caps}
}

// MatchAt attempts a match starting at offset at. With full set, the match
// must consume the entire input. On success the capture table holds the
// group offsets and End the match end.
func (m *Matcher) MatchAt(at int, full bool) bool {
	defer mMatcherMatchAt.Enter(m)()
	fuel := MaxSteps // stack-local backtracking budget
	return m.match(m.RE.Root, at, &fuel, func(end int) bool {
		if full && end != len(m.Input) {
			return false
		}
		// Commit the whole-match offsets only on success.
		m.Caps[0] = at
		m.Caps[1] = end
		m.End = end
		return true
	})
}

// Group returns the text of capture group i ("" when the group did not
// participate in the match).
func (m *Matcher) Group(i int) string {
	defer mMatcherGroup.Enter(m)()
	if i < 0 || 2*i+1 >= len(m.Caps) {
		fault.Throw(fault.IndexOutOfBounds, "Matcher.Group",
			"group %d of %d", i, m.RE.Groups)
	}
	lo, hi := m.Caps[2*i], m.Caps[2*i+1]
	if lo < 0 || hi < lo {
		return ""
	}
	return m.Input[lo:hi]
}

// match dispatches on the node type; k is the continuation receiving the
// position after the node's match. fuel is the stack-local backtracking
// budget shared by one MatchAt.
//
//failatomic:ignore per-node dispatcher; instrumenting it would multiply injection points without new coverage
func (m *Matcher) match(n Node, pos int, fuel *int, k func(int) bool) bool {
	*fuel--
	if *fuel < 0 {
		fault.Throw(fault.IllegalState, "Matcher.match", "backtracking limit exceeded")
	}
	switch node := n.(type) {
	case *CharNode:
		return pos < len(m.Input) && m.Input[pos] == node.Ch && k(pos+1)
	case *AnyNode:
		return pos < len(m.Input) && m.Input[pos] != '\n' && k(pos+1)
	case *ClassNode:
		return pos < len(m.Input) && m.classMatches(node, m.Input[pos]) && k(pos+1)
	case *SeqNode:
		return m.matchSeq(node.Nodes, pos, fuel, k)
	case *AltNode:
		if m.match(node.Left, pos, fuel, k) {
			return true
		}
		return m.match(node.Right, pos, fuel, k)
	case *RepeatNode:
		return m.matchRepeat(node, 0, pos, fuel, k)
	case *GroupNode:
		return m.matchGroup(node, pos, fuel, k)
	case *EmptyNode:
		return k(pos)
	case *AnchorNode:
		if node.End {
			return pos == len(m.Input) && k(pos)
		}
		return pos == 0 && k(pos)
	default:
		fault.Throw(fault.IllegalState, "Matcher.match", "unknown node %T", n)
		return false
	}
}

// matchSeq threads the continuation through a node sequence.
//
//failatomic:ignore continuation plumbing, no state
func (m *Matcher) matchSeq(nodes []Node, pos int, fuel *int, k func(int) bool) bool {
	if len(nodes) == 0 {
		return k(pos)
	}
	return m.match(nodes[0], pos, fuel, func(next int) bool {
		return m.matchSeq(nodes[1:], next, fuel, k)
	})
}

// matchRepeat implements greedy bounded repetition.
func (m *Matcher) matchRepeat(node *RepeatNode, count, pos int, fuel *int, k func(int) bool) bool {
	defer mMatchermatchRepeat.Enter(m)()
	if node.Max < 0 || count < node.Max {
		ok := m.match(node.Sub, pos, fuel, func(next int) bool {
			if next == pos {
				// Zero-width sub-match: stop looping.
				return count >= node.Min && k(next)
			}
			return m.matchRepeat(node, count+1, next, fuel, k)
		})
		if ok {
			return true
		}
	}
	return count >= node.Min && k(pos)
}

// matchGroup records capture offsets, restoring them on backtrack — but
// not on exceptions, which is exactly the non-atomicity the detection
// phase finds in the matcher.
func (m *Matcher) matchGroup(node *GroupNode, pos int, fuel *int, k func(int) bool) bool {
	defer mMatchermatchGroup.Enter(m)()
	oldLo, oldHi := m.Caps[2*node.Index], m.Caps[2*node.Index+1]
	m.Caps[2*node.Index] = pos
	ok := m.match(node.Sub, pos, fuel, func(next int) bool {
		m.Caps[2*node.Index+1] = next
		if k(next) {
			return true
		}
		m.Caps[2*node.Index+1] = oldHi
		return false
	})
	if !ok {
		m.Caps[2*node.Index] = oldLo
		m.Caps[2*node.Index+1] = oldHi
	}
	return ok
}

// classMatches tests a byte against a class node.
func (m *Matcher) classMatches(cls *ClassNode, c byte) bool {
	defer mMatcherclassMatches.Enter(m)()
	in := false
	for _, r := range cls.Ranges {
		if c >= r.Lo && c <= r.Hi {
			in = true
			break
		}
	}
	return in != cls.Negate
}

// Register adds the regexplite classes to a registry.
func Register(r *core.Registry) {
	r.Ctor("RegExp", "RegExp.Compile", fault.ParseError).
		Method("RegExp", "Match", fault.IllegalState).
		Method("RegExp", "Search", fault.IllegalState).
		Method("RegExp", "MatchPrefix", fault.IllegalState).
		Ctor("REParser", "REParser.New").
		Method("REParser", "ParseAlternation", fault.ParseError).
		Method("REParser", "ParseSequence", fault.ParseError).
		Method("REParser", "ParseRepeat", fault.ParseError).
		Method("REParser", "ParseBounds", fault.ParseError).
		Method("REParser", "ParseAtom", fault.ParseError).
		Method("REParser", "ParseClass", fault.ParseError).
		Method("REParser", "ParseEscape", fault.ParseError).
		Ctor("Matcher", "Matcher.New").
		Method("Matcher", "MatchAt", fault.IllegalState).
		Method("Matcher", "Group", fault.IndexOutOfBounds).
		Method("Matcher", "matchRepeat", fault.IllegalState).
		Method("Matcher", "matchGroup", fault.IllegalState).
		Method("Matcher", "classMatches")
}
