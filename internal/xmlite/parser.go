package xmlite

import (
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mParserNew           = core.Method("Parser.New")
	mxmliteParse         = core.Method("xmlite.Parse")
	mParserParseDocument = core.Method("Parser.ParseDocument")
	mParserParseElement  = core.Method("Parser.ParseElement")
	mParserParseAttrs    = core.Method("Parser.ParseAttrs")
	mParserParseName     = core.Method("Parser.ParseName")
	mParserParseQuoted   = core.Method("Parser.ParseQuoted")
	mParserParseText     = core.Method("Parser.ParseText")
	mParserSkipSpace     = core.Method("Parser.SkipSpace")
	mParserParseCDATA    = core.Method("Parser.ParseCDATA")
	mParserSkipComment   = core.Method("Parser.SkipComment")
	mParserUnescape      = core.Method("Parser.Unescape")
)

// Parser is a recursive-descent XML parser. In the Self* careful style the
// parser object itself is immutable during a parse: every method takes the
// current position and returns the new one, so a thrown ParseError leaves
// the parser's object graph untouched (failure atomic by construction).
type Parser struct {
	Input string
}

// NewParser returns a parser over input.
func NewParser(input string) *Parser {
	defer mParserNew.Enter(nil)()
	return &Parser{Input: input}
}

// Parse parses a complete document and returns its root element.
func Parse(input string) *Element {
	defer mxmliteParse.Enter(nil)()
	return NewParser(input).ParseDocument()
}

// ParseDocument parses optional prolog/whitespace, the root element, and
// trailing whitespace.
func (p *Parser) ParseDocument() *Element {
	defer mParserParseDocument.Enter(p)()
	pos := p.SkipSpace(0)
	if strings.HasPrefix(p.Input[pos:], "<?") {
		end := strings.Index(p.Input[pos:], "?>")
		if end < 0 {
			p.fail(pos, "unterminated processing instruction")
		}
		pos = p.SkipSpace(pos + end + 2)
	}
	root, pos := p.ParseElement(pos)
	pos = p.SkipSpace(pos)
	if pos != len(p.Input) {
		p.fail(pos, "content after root element")
	}
	return root
}

// ParseElement parses one element and its subtree starting at pos,
// returning the element and the position after it. Children attach only
// after each child parsed completely.
func (p *Parser) ParseElement(pos int) (*Element, int) {
	defer mParserParseElement.Enter(p)()
	if pos >= len(p.Input) || p.Input[pos] != '<' {
		p.fail(pos, "expected '<'")
	}
	name, pos := p.ParseName(pos + 1)
	attrs, pos := p.ParseAttrs(name, pos)
	elem := &Element{Name: name, Attrs: attrs}
	if strings.HasPrefix(p.Input[pos:], "/>") {
		return elem, pos + 2
	}
	if pos >= len(p.Input) || p.Input[pos] != '>' {
		p.fail(pos, "expected '>' in <%s>", name)
	}
	pos++
	for {
		if pos >= len(p.Input) {
			p.fail(pos, "unterminated element <%s>", name)
		}
		if strings.HasPrefix(p.Input[pos:], "</") {
			var closeName string
			closeName, pos = p.ParseName(pos + 2)
			if closeName != name {
				p.fail(pos, "mismatched close tag </%s> for <%s>", closeName, name)
			}
			pos = p.SkipSpace(pos)
			if pos >= len(p.Input) || p.Input[pos] != '>' {
				p.fail(pos, "expected '>' after </%s", closeName)
			}
			return elem, pos + 1
		}
		if strings.HasPrefix(p.Input[pos:], "<!--") {
			pos = p.SkipComment(pos)
			continue
		}
		if strings.HasPrefix(p.Input[pos:], "<![CDATA[") {
			var data string
			data, pos = p.ParseCDATA(pos)
			elem.Children = append(elem.Children, &Text{Data: data})
			continue
		}
		if p.Input[pos] == '<' {
			var child *Element
			child, pos = p.ParseElement(pos)
			elem.Children = append(elem.Children, child)
			continue
		}
		var text string
		text, pos = p.ParseText(pos)
		if text != "" {
			elem.Children = append(elem.Children, &Text{Data: text})
		}
	}
}

// ParseAttrs parses name="value" pairs of the tag named tag and returns
// them with the position of the tag terminator. The list is built locally
// and handed back, so a mid-list ParseError discards it wholesale.
func (p *Parser) ParseAttrs(tag string, pos int) ([]Attr, int) {
	defer mParserParseAttrs.Enter(p)()
	var attrs []Attr
	for {
		pos = p.SkipSpace(pos)
		if pos >= len(p.Input) {
			p.fail(pos, "unterminated tag <%s>", tag)
		}
		c := p.Input[pos]
		if c == '>' || c == '/' || c == '?' {
			return attrs, pos
		}
		var name, value string
		name, pos = p.ParseName(pos)
		pos = p.SkipSpace(pos)
		if pos >= len(p.Input) || p.Input[pos] != '=' {
			p.fail(pos, "expected '=' after attribute %q", name)
		}
		pos = p.SkipSpace(pos + 1)
		value, pos = p.ParseQuoted(pos)
		attrs = append(attrs, Attr{Name: name, Value: value})
	}
}

// ParseName parses an XML name token starting at pos.
func (p *Parser) ParseName(pos int) (string, int) {
	defer mParserParseName.Enter(p)()
	start := pos
	for pos < len(p.Input) && isNameByte(p.Input[pos], pos > start) {
		pos++
	}
	if pos == start {
		p.fail(pos, "expected a name")
	}
	return p.Input[start:pos], pos
}

// ParseQuoted parses a double- or single-quoted attribute value with
// entity expansion.
func (p *Parser) ParseQuoted(pos int) (string, int) {
	defer mParserParseQuoted.Enter(p)()
	if pos >= len(p.Input) || (p.Input[pos] != '"' && p.Input[pos] != '\'') {
		p.fail(pos, "expected quoted value")
	}
	quote := p.Input[pos]
	pos++
	start := pos
	for pos < len(p.Input) && p.Input[pos] != quote {
		pos++
	}
	if pos >= len(p.Input) {
		p.fail(pos, "unterminated attribute value")
	}
	return p.Unescape(p.Input[start:pos], start), pos + 1
}

// ParseText parses character data up to the next '<'.
func (p *Parser) ParseText(pos int) (string, int) {
	defer mParserParseText.Enter(p)()
	start := pos
	for pos < len(p.Input) && p.Input[pos] != '<' {
		pos++
	}
	return p.Unescape(strings.TrimSpace(p.Input[start:pos]), start), pos
}

// SkipSpace returns the first non-whitespace position at or after pos.
func (p *Parser) SkipSpace(pos int) int {
	defer mParserSkipSpace.Enter(p)()
	for pos < len(p.Input) {
		switch p.Input[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

// ParseCDATA parses a <![CDATA[ ... ]]> section; the contents are taken
// verbatim (no entity expansion).
func (p *Parser) ParseCDATA(pos int) (string, int) {
	defer mParserParseCDATA.Enter(p)()
	start := pos + len("<![CDATA[")
	end := strings.Index(p.Input[start:], "]]>")
	if end < 0 {
		p.fail(pos, "unterminated CDATA section")
	}
	return p.Input[start : start+end], start + end + 3
}

// SkipComment returns the position after a <!-- --> comment.
func (p *Parser) SkipComment(pos int) int {
	defer mParserSkipComment.Enter(p)()
	end := strings.Index(p.Input[pos:], "-->")
	if end < 0 {
		p.fail(pos, "unterminated comment")
	}
	return pos + end + 3
}

// Unescape expands the five predefined entities in s (located at offset
// for error reporting).
func (p *Parser) Unescape(s string, offset int) string {
	defer mParserUnescape.Enter(p)()
	if !strings.Contains(s, "&") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			p.fail(offset+i, "unterminated entity in %q", s)
		}
		entity := s[i+1 : i+semi]
		switch entity {
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "amp":
			b.WriteByte('&')
		case "quot":
			b.WriteByte('"')
		case "apos":
			b.WriteByte('\'')
		default:
			p.fail(offset+i, "unknown entity &%s;", entity)
		}
		i += semi + 1
	}
	return b.String()
}

// fail throws a ParseError at the given position.
//
//failatomic:ignore always throws; receiver immutable
func (p *Parser) fail(pos int, format string, args ...any) {
	fault.Throw(fault.ParseError, "Parser",
		"offset %d: "+format, append([]any{pos}, args...)...)
}

func isNameByte(c byte, interior bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case interior && (c >= '0' && c <= '9' || c == '-' || c == '.' || c == ':'):
		return true
	default:
		return false
	}
}

// RegisterParser adds the parser class to a registry.
func RegisterParser(r *core.Registry) {
	r.Ctor("Parser", "Parser.New").
		Ctor("Parser", "xmlite.Parse", fault.ParseError).
		Method("Parser", "ParseDocument", fault.ParseError).
		Method("Parser", "ParseElement", fault.ParseError).
		Method("Parser", "ParseAttrs", fault.ParseError).
		Method("Parser", "ParseName", fault.ParseError).
		Method("Parser", "ParseQuoted", fault.ParseError).
		Method("Parser", "ParseText", fault.ParseError).
		Method("Parser", "SkipSpace").
		Method("Parser", "SkipComment", fault.ParseError).
		Method("Parser", "ParseCDATA", fault.ParseError).
		Method("Parser", "Unescape", fault.ParseError)
}
