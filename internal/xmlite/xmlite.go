// Package xmlite is a small hand-written XML parser, DOM and serializer —
// the substrate of the paper's four xml2* C++ applications (XML-to-TCP,
// XML-to-C-via-structural-conversion, XML-to-XML pipelines). It supports
// elements, attributes, text, self-closing tags, comments and the five
// predefined entities.
//
// The parser is written in the Self* compute-then-commit style: position
// state lives in the parser object, but DOM nodes are attached only after
// their subtree parsed completely, so most methods are failure atomic.
package xmlite

import (
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mElementAttr          = core.Method("Element.Attr")
	mElementSetAttr       = core.Method("Element.SetAttr")
	mElementChildElements = core.Method("Element.ChildElements")
	mElementTextContent   = core.Method("Element.TextContent")
	mElementFind          = core.Method("Element.Find")
	mElementAppend        = core.Method("Element.Append")
)

// Node is a DOM node: *Element or *Text.
type Node interface {
	// nodeKind tags the node for debugging.
	nodeKind() string
}

// Attr is one element attribute.
type Attr struct {
	Name  string
	Value string
}

// Element is an XML element with attributes and children.
type Element struct {
	Name     string
	Attrs    []Attr
	Children []Node
}

//failatomic:ignore tag method
func (*Element) nodeKind() string { return "element" }

// Text is a character-data node.
type Text struct {
	Data string
}

//failatomic:ignore tag method
func (*Text) nodeKind() string { return "text" }

// Attr returns the value of the named attribute and whether it exists.
func (e *Element) Attr(name string) (string, bool) {
	defer mElementAttr.Enter(e)()
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces an attribute.
func (e *Element) SetAttr(name, value string) {
	defer mElementSetAttr.Enter(e)()
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			e.Attrs[i].Value = value
			return
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: name, Value: value})
}

// ChildElements returns the element children in document order.
func (e *Element) ChildElements() []*Element {
	defer mElementChildElements.Enter(e)()
	var out []*Element
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok {
			out = append(out, el)
		}
	}
	return out
}

// TextContent concatenates all descendant text.
func (e *Element) TextContent() string {
	defer mElementTextContent.Enter(e)()
	var b strings.Builder
	var walk func(n Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *Text:
			b.WriteString(v.Data)
		case *Element:
			for _, c := range v.Children {
				walk(c)
			}
		}
	}
	walk(e)
	return b.String()
}

// Find returns the first descendant element with the given name (depth
// first), or nil.
func (e *Element) Find(name string) *Element {
	defer mElementFind.Enter(e)()
	for _, c := range e.Children {
		el, ok := c.(*Element)
		if !ok {
			continue
		}
		if el.Name == name {
			return el
		}
		if found := el.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// Append adds a child node.
func (e *Element) Append(n Node) {
	defer mElementAppend.Enter(e)()
	if n == nil {
		fault.Throw(fault.IllegalElement, "Element.Append", "nil child")
	}
	e.Children = append(e.Children, n)
}

// RegisterDOM adds the DOM classes to a registry.
func RegisterDOM(r *core.Registry) {
	r.Method("Element", "Attr").
		Method("Element", "SetAttr").
		Method("Element", "ChildElements").
		Method("Element", "TextContent").
		Method("Element", "Find").
		Method("Element", "Append", fault.IllegalElement)
}
