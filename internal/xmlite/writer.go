package xmlite

import (
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mWriterNew           = core.Method("Writer.New")
	mWriterString        = core.Method("Writer.String")
	mWriterWriteDocument = core.Method("Writer.WriteDocument")
	mWriterWriteElement  = core.Method("Writer.WriteElement")
	mWriterWriteText     = core.Method("Writer.WriteText")
	mWriterRaw           = core.Method("Writer.Raw")
)

// Writer serializes a DOM back to XML text. It accumulates output in an
// exported buffer so the writer itself is a checkpointable component.
type Writer struct {
	Out    []byte
	Indent bool
	Depth  int
}

// NewWriter returns a writer; with indent set it pretty-prints.
func NewWriter(indent bool) *Writer {
	defer mWriterNew.Enter(nil)()
	return &Writer{Indent: indent}
}

// String returns the serialized document.
func (w *Writer) String() string {
	defer mWriterString.Enter(w)()
	return string(w.Out)
}

// WriteDocument serializes root (with prolog) and returns the text.
func (w *Writer) WriteDocument(root *Element) string {
	defer mWriterWriteDocument.Enter(w)()
	if root == nil {
		fault.Throw(fault.IllegalArgument, "Writer.WriteDocument", "nil root")
	}
	w.Raw(`<?xml version="1.0"?>`)
	if w.Indent {
		w.Raw("\n")
	}
	w.WriteElement(root)
	return w.String()
}

// WriteElement serializes one element subtree.
func (w *Writer) WriteElement(e *Element) {
	defer mWriterWriteElement.Enter(w)()
	w.indent()
	w.Raw("<")
	w.Raw(e.Name)
	for _, a := range e.Attrs {
		w.Raw(" ")
		w.Raw(a.Name)
		w.Raw(`="`)
		w.Raw(Escape(a.Value))
		w.Raw(`"`)
	}
	if len(e.Children) == 0 {
		w.Raw("/>")
		w.newline()
		return
	}
	w.Raw(">")
	onlyText := true
	for _, c := range e.Children {
		if _, ok := c.(*Text); !ok {
			onlyText = false
			break
		}
	}
	if !onlyText {
		w.newline()
		w.Depth++
	}
	for _, c := range e.Children {
		switch v := c.(type) {
		case *Text:
			w.WriteText(v)
		case *Element:
			w.WriteElement(v)
		default:
			fault.Throw(fault.IllegalArgument, "Writer.WriteElement", "unknown node %T", c)
		}
	}
	if !onlyText {
		w.Depth--
		w.indent()
	}
	w.Raw("</")
	w.Raw(e.Name)
	w.Raw(">")
	w.newline()
}

// WriteText serializes a text node with escaping.
func (w *Writer) WriteText(t *Text) {
	defer mWriterWriteText.Enter(w)()
	w.Raw(Escape(t.Data))
}

// Raw appends raw output.
func (w *Writer) Raw(s string) {
	defer mWriterRaw.Enter(w)()
	w.Out = append(w.Out, s...)
}

//failatomic:ignore formatting helper, covered by Raw
func (w *Writer) indent() {
	if !w.Indent {
		return
	}
	for i := 0; i < w.Depth; i++ {
		w.Out = append(w.Out, ' ', ' ')
	}
}

//failatomic:ignore formatting helper, covered by Raw
func (w *Writer) newline() {
	if w.Indent {
		w.Out = append(w.Out, '\n')
	}
}

// Escape replaces the five predefined entities.
func Escape(s string) string {
	r := strings.NewReplacer(
		"&", "&amp;",
		"<", "&lt;",
		">", "&gt;",
		`"`, "&quot;",
		"'", "&apos;",
	)
	return r.Replace(s)
}

// RegisterWriter adds the writer class to a registry.
func RegisterWriter(r *core.Registry) {
	r.Ctor("Writer", "Writer.New").
		Method("Writer", "String").
		Method("Writer", "WriteDocument", fault.IllegalArgument).
		Method("Writer", "WriteElement", fault.IllegalArgument).
		Method("Writer", "WriteText").
		Method("Writer", "Raw")
}
