package regexplite

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mREParserNew              = core.Method("REParser.New")
	mREParserParseAlternation = core.Method("REParser.ParseAlternation")
	mREParserParseSequence    = core.Method("REParser.ParseSequence")
	mREParserParseRepeat      = core.Method("REParser.ParseRepeat")
	mREParserParseBounds      = core.Method("REParser.ParseBounds")
	mREParserParseAtom        = core.Method("REParser.ParseAtom")
	mREParserParseClass       = core.Method("REParser.ParseClass")
	mREParserParseEscape      = core.Method("REParser.ParseEscape")
)

// REParser is the recursive-descent pattern parser. It advances Pos and
// allocates group indices as it goes — legacy incremental state.
type REParser struct {
	Pattern string
	Pos     int
	Groups  int
	Depth   int
}

// MaxGroupDepth bounds group nesting.
const MaxGroupDepth = 32

// NewREParser returns a parser positioned at the start of pattern.
func NewREParser(pattern string) *REParser {
	defer mREParserNew.Enter(nil)()
	return &REParser{Pattern: pattern}
}

// ParseAlternation parses branch ('|' branch)*.
func (p *REParser) ParseAlternation() Node {
	defer mREParserParseAlternation.Enter(p)()
	left := p.ParseSequence()
	for p.Pos < len(p.Pattern) && p.Pattern[p.Pos] == '|' {
		p.Pos++
		right := p.ParseSequence()
		left = &AltNode{Left: left, Right: right}
	}
	return left
}

// ParseSequence parses a run of repeated atoms.
func (p *REParser) ParseSequence() Node {
	defer mREParserParseSequence.Enter(p)()
	var nodes []Node
	for p.Pos < len(p.Pattern) {
		c := p.Pattern[p.Pos]
		if c == '|' || c == ')' {
			break
		}
		nodes = append(nodes, p.ParseRepeat())
	}
	switch len(nodes) {
	case 0:
		return &EmptyNode{}
	case 1:
		return nodes[0]
	default:
		return &SeqNode{Nodes: nodes}
	}
}

// ParseRepeat parses an atom with an optional *, +, ? or {n[,m]} suffix.
func (p *REParser) ParseRepeat() Node {
	defer mREParserParseRepeat.Enter(p)()
	atom := p.ParseAtom()
	if p.Pos >= len(p.Pattern) {
		return atom
	}
	switch p.Pattern[p.Pos] {
	case '*':
		p.Pos++
		return &RepeatNode{Sub: atom, Min: 0, Max: -1}
	case '+':
		p.Pos++
		return &RepeatNode{Sub: atom, Min: 1, Max: -1}
	case '?':
		p.Pos++
		return &RepeatNode{Sub: atom, Min: 0, Max: 1}
	case '{':
		min, max := p.ParseBounds()
		return &RepeatNode{Sub: atom, Min: min, Max: max}
	default:
		return atom
	}
}

// ParseBounds parses a {n}, {n,} or {n,m} quantifier.
func (p *REParser) ParseBounds() (min, max int) {
	defer mREParserParseBounds.Enter(p)()
	p.Pos++ // consume '{'
	min, ok := p.parseInt()
	if !ok {
		fault.Throw(fault.ParseError, "REParser.ParseBounds", "missing bound at %d", p.Pos)
	}
	max = min
	if p.Pos < len(p.Pattern) && p.Pattern[p.Pos] == ',' {
		p.Pos++
		if m, ok := p.parseInt(); ok {
			max = m
		} else {
			max = -1 // {n,} = unbounded
		}
	}
	if p.Pos >= len(p.Pattern) || p.Pattern[p.Pos] != '}' {
		fault.Throw(fault.ParseError, "REParser.ParseBounds", "missing '}' at %d", p.Pos)
	}
	p.Pos++
	if max >= 0 && max < min {
		fault.Throw(fault.ParseError, "REParser.ParseBounds", "inverted bounds {%d,%d}", min, max)
	}
	const maxBound = 256
	if min > maxBound || max > maxBound {
		fault.Throw(fault.ParseError, "REParser.ParseBounds", "bound exceeds %d", maxBound)
	}
	return min, max
}

// parseInt reads a decimal integer at the cursor.
//
//failatomic:ignore cursor-local lexing helper
func (p *REParser) parseInt() (int, bool) {
	start := p.Pos
	n := 0
	for p.Pos < len(p.Pattern) && p.Pattern[p.Pos] >= '0' && p.Pattern[p.Pos] <= '9' {
		n = n*10 + int(p.Pattern[p.Pos]-'0')
		p.Pos++
	}
	return n, p.Pos > start
}

// ParseAtom parses a literal, '.', a class, an escape or a group.
func (p *REParser) ParseAtom() Node {
	defer mREParserParseAtom.Enter(p)()
	if p.Pos >= len(p.Pattern) {
		fault.Throw(fault.ParseError, "REParser.ParseAtom", "pattern ended unexpectedly")
	}
	c := p.Pattern[p.Pos]
	switch c {
	case '.':
		p.Pos++
		return &AnyNode{}
	case '^':
		p.Pos++
		return &AnchorNode{}
	case '$':
		p.Pos++
		return &AnchorNode{End: true}
	case '[':
		return p.ParseClass()
	case '\\':
		return p.ParseEscape()
	case '(':
		p.Pos++ // consume '(' before recursing — legacy cursor-first style
		p.Depth++
		if p.Depth > MaxGroupDepth {
			fault.Throw(fault.ParseError, "REParser.ParseAtom", "groups nested too deeply")
		}
		p.Groups++
		idx := p.Groups
		sub := p.ParseAlternation()
		if p.Pos >= len(p.Pattern) || p.Pattern[p.Pos] != ')' {
			fault.Throw(fault.ParseError, "REParser.ParseAtom", "missing ')' at %d", p.Pos)
		}
		p.Pos++
		p.Depth--
		return &GroupNode{Index: idx, Sub: sub}
	case '*', '+', '?', '{':
		fault.Throw(fault.ParseError, "REParser.ParseAtom", "dangling %q at %d", c, p.Pos)
		return nil
	case ')':
		fault.Throw(fault.ParseError, "REParser.ParseAtom", "unbalanced ')' at %d", p.Pos)
		return nil
	default:
		p.Pos++
		return &CharNode{Ch: c}
	}
}

// ParseClass parses a [...] character class.
func (p *REParser) ParseClass() Node {
	defer mREParserParseClass.Enter(p)()
	p.Pos++ // consume '['
	cls := &ClassNode{}
	if p.Pos < len(p.Pattern) && p.Pattern[p.Pos] == '^' {
		cls.Negate = true
		p.Pos++
	}
	for {
		if p.Pos >= len(p.Pattern) {
			fault.Throw(fault.ParseError, "REParser.ParseClass", "unterminated class")
		}
		c := p.Pattern[p.Pos]
		if c == ']' && len(cls.Ranges) > 0 {
			p.Pos++
			return cls
		}
		if c == '\\' {
			p.Pos++
			if p.Pos >= len(p.Pattern) {
				fault.Throw(fault.ParseError, "REParser.ParseClass", "trailing backslash")
			}
			c = p.Pattern[p.Pos]
		}
		p.Pos++
		if p.Pos+1 < len(p.Pattern) && p.Pattern[p.Pos] == '-' && p.Pattern[p.Pos+1] != ']' {
			hi := p.Pattern[p.Pos+1]
			if hi < c {
				fault.Throw(fault.ParseError, "REParser.ParseClass",
					"inverted range %c-%c", c, hi)
			}
			cls.Ranges = append(cls.Ranges, ClassRange{Lo: c, Hi: hi})
			p.Pos += 2
			continue
		}
		cls.Ranges = append(cls.Ranges, ClassRange{Lo: c, Hi: c})
	}
}

// ParseEscape parses \d \w \s and literal escapes.
func (p *REParser) ParseEscape() Node {
	defer mREParserParseEscape.Enter(p)()
	p.Pos++ // consume '\'
	if p.Pos >= len(p.Pattern) {
		fault.Throw(fault.ParseError, "REParser.ParseEscape", "trailing backslash")
	}
	c := p.Pattern[p.Pos]
	p.Pos++
	switch c {
	case 'd':
		return &ClassNode{Ranges: []ClassRange{{Lo: '0', Hi: '9'}}}
	case 'w':
		return &ClassNode{Ranges: []ClassRange{
			{Lo: 'a', Hi: 'z'}, {Lo: 'A', Hi: 'Z'}, {Lo: '0', Hi: '9'}, {Lo: '_', Hi: '_'},
		}}
	case 's':
		return &ClassNode{Ranges: []ClassRange{
			{Lo: ' ', Hi: ' '}, {Lo: '\t', Hi: '\t'}, {Lo: '\n', Hi: '\n'}, {Lo: '\r', Hi: '\r'},
		}}
	default:
		return &CharNode{Ch: c}
	}
}
