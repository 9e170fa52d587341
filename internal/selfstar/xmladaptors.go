package selfstar

import (
	"strconv"
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
	"failatomic/internal/xmlite"
)

// Method handles of the instrumented methods below.
var (
	mXMLParseAdaptorNew           = core.Method("XMLParseAdaptor.New")
	mXMLParseAdaptorAdaptorName   = core.Method("XMLParseAdaptor.AdaptorName")
	mXMLParseAdaptorProcess       = core.Method("XMLParseAdaptor.Process")
	mTCPFrameAdaptorNew           = core.Method("TCPFrameAdaptor.New")
	mTCPFrameAdaptorAdaptorName   = core.Method("TCPFrameAdaptor.AdaptorName")
	mTCPFrameAdaptorProcess       = core.Method("TCPFrameAdaptor.Process")
	mTCPFrameAdaptorEncodeFrame   = core.Method("TCPFrameAdaptor.EncodeFrame")
	mTCPFrameAdaptorcountFrames   = core.Method("TCPFrameAdaptor.countFrames")
	mStructConvAdaptorNew         = core.Method("StructConvAdaptor.New")
	mStructConvAdaptorAdaptorName = core.Method("StructConvAdaptor.AdaptorName")
	mStructConvAdaptorProcess     = core.Method("StructConvAdaptor.Process")
	mStructConvAdaptoremitFlat    = core.Method("StructConvAdaptor.emitFlat")
	mStructConvAdaptoremitNested  = core.Method("StructConvAdaptor.emitNested")
	mStructConvAdaptorCheckIdent  = core.Method("StructConvAdaptor.CheckIdent")
	mXMLRenameAdaptorNew          = core.Method("XMLRenameAdaptor.New")
	mXMLRenameAdaptorAdaptorName  = core.Method("XMLRenameAdaptor.AdaptorName")
	mXMLRenameAdaptorProcess      = core.Method("XMLRenameAdaptor.Process")
	mXMLRenameAdaptorRewrite      = core.Method("XMLRenameAdaptor.Rewrite")
)

// XMLParseAdaptor parses message text into a DOM (the front stage of all
// four xml2* applications). Like every interior stage it is stateless.
type XMLParseAdaptor struct{}

// NewXMLParseAdaptor returns a parser stage.
func NewXMLParseAdaptor() *XMLParseAdaptor {
	defer mXMLParseAdaptorNew.Enter(nil)()
	return &XMLParseAdaptor{}
}

// AdaptorName implements Adaptor.
func (a *XMLParseAdaptor) AdaptorName() string {
	defer mXMLParseAdaptorAdaptorName.Enter(a)()
	return "xmlparse"
}

// Process parses the text into Doc.
func (a *XMLParseAdaptor) Process(m *Message) *Message {
	defer mXMLParseAdaptorProcess.Enter(a)()
	return &Message{ID: m.ID, Doc: xmlite.Parse(m.Text)}
}

// TCPFrameAdaptor encodes a DOM into length-prefixed wire frames — the
// xml2Ctcp application's output stage. Each element becomes one frame of
// "name=text" payload with a 4-digit length prefix.
type TCPFrameAdaptor struct {
	SeqNo  int
	Frames int
}

// MaxFramePayload bounds one frame's payload.
const MaxFramePayload = 9999

// NewTCPFrameAdaptor returns an encoder stage.
func NewTCPFrameAdaptor() *TCPFrameAdaptor {
	defer mTCPFrameAdaptorNew.Enter(nil)()
	return &TCPFrameAdaptor{}
}

// AdaptorName implements Adaptor.
func (a *TCPFrameAdaptor) AdaptorName() string {
	defer mTCPFrameAdaptorAdaptorName.Enter(a)()
	return "tcpframe"
}

// Process encodes every element into frames; the sequence number advances
// per frame *as frames are built* — the one careless habit this component
// kept from its C++ original.
func (a *TCPFrameAdaptor) Process(m *Message) *Message {
	defer mTCPFrameAdaptorProcess.Enter(a)()
	if m.Doc == nil {
		fault.Throw(fault.IllegalArgument, "TCPFrameAdaptor.Process", "message %d has no DOM", m.ID)
	}
	var out []byte
	var walk func(e *xmlite.Element)
	walk = func(e *xmlite.Element) {
		a.SeqNo++
		out = append(out, a.EncodeFrame(e)...)
		for _, child := range e.ChildElements() {
			walk(child)
		}
	}
	walk(m.Doc)
	a.Frames += a.countFrames(out)
	return &Message{ID: m.ID, Bytes: out}
}

// EncodeFrame builds one frame for an element.
func (a *TCPFrameAdaptor) EncodeFrame(e *xmlite.Element) []byte {
	defer mTCPFrameAdaptorEncodeFrame.Enter(a)()
	payload := e.Name + "=" + firstLine(e.TextContent())
	if len(payload) > MaxFramePayload {
		fault.Throw(fault.CapacityExceeded, "TCPFrameAdaptor.EncodeFrame",
			"payload %d bytes", len(payload))
	}
	frame := make([]byte, 0, 4+len(payload))
	frame = append(frame, lengthPrefix(len(payload))...)
	frame = append(frame, payload...)
	return frame
}

// countFrames re-parses the stream to count frames (a self-check).
func (a *TCPFrameAdaptor) countFrames(stream []byte) int {
	defer mTCPFrameAdaptorcountFrames.Enter(a)()
	n := 0
	for pos := 0; pos < len(stream); {
		if pos+4 > len(stream) {
			fault.Throw(fault.IllegalState, "TCPFrameAdaptor.countFrames", "truncated prefix")
		}
		size, err := strconv.Atoi(string(stream[pos : pos+4]))
		if err != nil || pos+4+size > len(stream) {
			fault.Throw(fault.IllegalState, "TCPFrameAdaptor.countFrames", "corrupt frame")
		}
		pos += 4 + size
		n++
	}
	return n
}

func lengthPrefix(n int) []byte {
	s := strconv.Itoa(n)
	for len(s) < 4 {
		s = "0" + s
	}
	return []byte(s)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// StructConvAdaptor converts a DOM into C struct declarations — the
// xml2Cviasc applications' "structural conversion" stage. Variant 1 emits
// one flat struct per element; variant 2 deduplicates via a registry and
// nests child structs.
type StructConvAdaptor struct {
	Variant int
	Emitted int
	// Names logs the struct names variant 1 emitted, appended as the walk
	// proceeds — the rarely-exercised non-atomic path the paper notes
	// "would probably not have been discovered without the automated
	// exception injections".
	Names []string
	// Seen deduplicates struct names in variant 2; it mutates during
	// emission.
	Seen map[string]bool
}

// NewStructConvAdaptor returns a conversion stage (variant 1 or 2).
func NewStructConvAdaptor(variant int) *StructConvAdaptor {
	defer mStructConvAdaptorNew.Enter(nil)()
	if variant != 1 && variant != 2 {
		fault.Throw(fault.IllegalArgument, "StructConvAdaptor.New", "variant %d", variant)
	}
	return &StructConvAdaptor{Variant: variant, Seen: make(map[string]bool)}
}

// AdaptorName implements Adaptor.
func (a *StructConvAdaptor) AdaptorName() string {
	defer mStructConvAdaptorAdaptorName.Enter(a)()
	return "structconv" + strconv.Itoa(a.Variant)
}

// Process renders the DOM as C declarations.
func (a *StructConvAdaptor) Process(m *Message) *Message {
	defer mStructConvAdaptorProcess.Enter(a)()
	if m.Doc == nil {
		fault.Throw(fault.IllegalArgument, "StructConvAdaptor.Process", "message %d has no DOM", m.ID)
	}
	var b strings.Builder
	if a.Variant == 1 {
		a.emitFlat(&b, m.Doc)
	} else {
		a.emitNested(&b, m.Doc)
	}
	a.Emitted++
	return &Message{ID: m.ID, Text: b.String()}
}

// emitFlat writes one struct per element, depth first, logging each name
// before its identifiers are fully validated.
func (a *StructConvAdaptor) emitFlat(b *strings.Builder, e *xmlite.Element) {
	defer mStructConvAdaptoremitFlat.Enter(a)()
	a.Names = append(a.Names, e.Name)
	a.CheckIdent(e.Name)
	b.WriteString("struct " + e.Name + " {\n")
	for _, attr := range e.Attrs {
		a.CheckIdent(attr.Name)
		b.WriteString("\tchar *" + attr.Name + ";\n")
	}
	b.WriteString("\tchar *text;\n};\n")
	for _, child := range e.ChildElements() {
		a.emitFlat(b, child)
	}
}

// emitNested deduplicates by name and embeds child struct pointers; the
// Seen registry fills in as the walk proceeds, so a mid-walk exception
// strands it half-populated.
func (a *StructConvAdaptor) emitNested(b *strings.Builder, e *xmlite.Element) {
	defer mStructConvAdaptoremitNested.Enter(a)()
	if a.Seen[e.Name] {
		return
	}
	a.Seen[e.Name] = true
	a.CheckIdent(e.Name)
	for _, child := range e.ChildElements() {
		a.emitNested(b, child)
	}
	b.WriteString("struct " + e.Name + " {\n")
	for _, attr := range e.Attrs {
		a.CheckIdent(attr.Name)
		b.WriteString("\tchar *" + attr.Name + ";\n")
	}
	seenChild := make(map[string]bool)
	for _, child := range e.ChildElements() {
		if seenChild[child.Name] {
			continue
		}
		seenChild[child.Name] = true
		b.WriteString("\tstruct " + child.Name + " *" + child.Name + ";\n")
	}
	b.WriteString("};\n")
}

// CheckIdent validates that a name is a legal C identifier.
func (a *StructConvAdaptor) CheckIdent(name string) {
	defer mStructConvAdaptorCheckIdent.Enter(a)()
	if name == "" {
		fault.Throw(fault.IllegalArgument, "StructConvAdaptor.CheckIdent", "empty identifier")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9'
		if !ok {
			fault.Throw(fault.IllegalArgument, "StructConvAdaptor.CheckIdent",
				"%q is not a C identifier", name)
		}
	}
}

// XMLRenameAdaptor rewrites a DOM (tag renames, attribute stripping) and
// re-serializes it — the xml2xml1 application.
type XMLRenameAdaptor struct {
	Renames   map[string]string
	StripAttr string
	Rewritten int
}

// NewXMLRenameAdaptor returns a rewrite stage.
func NewXMLRenameAdaptor(renames map[string]string, stripAttr string) *XMLRenameAdaptor {
	defer mXMLRenameAdaptorNew.Enter(nil)()
	return &XMLRenameAdaptor{Renames: renames, StripAttr: stripAttr}
}

// AdaptorName implements Adaptor.
func (a *XMLRenameAdaptor) AdaptorName() string {
	defer mXMLRenameAdaptorAdaptorName.Enter(a)()
	return "xmlrename"
}

// Process rewrites the DOM *in place* (the C++ original mutated the tree
// it was given) and serializes it back to text.
func (a *XMLRenameAdaptor) Process(m *Message) *Message {
	defer mXMLRenameAdaptorProcess.Enter(a)()
	if m.Doc == nil {
		fault.Throw(fault.IllegalArgument, "XMLRenameAdaptor.Process", "message %d has no DOM", m.ID)
	}
	a.Rewrite(m.Doc)
	w := xmlite.NewWriter(false)
	text := w.WriteDocument(m.Doc)
	a.Rewritten++
	return &Message{ID: m.ID, Text: text, Doc: m.Doc}
}

// Rewrite renames tags and strips the configured attribute, top down —
// in-place mutation that a mid-walk exception leaves half-applied.
func (a *XMLRenameAdaptor) Rewrite(e *xmlite.Element) {
	defer mXMLRenameAdaptorRewrite.Enter(a, e)()
	if to, ok := a.Renames[e.Name]; ok {
		e.Name = to
	}
	if a.StripAttr != "" {
		kept := e.Attrs[:0]
		for _, attr := range e.Attrs {
			if attr.Name != a.StripAttr {
				kept = append(kept, attr)
			}
		}
		e.Attrs = kept
	}
	for _, child := range e.ChildElements() {
		a.Rewrite(child)
	}
}

// RegisterXMLAdaptors adds the xml2* stage classes to a registry.
func RegisterXMLAdaptors(r *core.Registry) {
	r.Ctor("XMLParseAdaptor", "XMLParseAdaptor.New").
		Method("XMLParseAdaptor", "AdaptorName").
		Method("XMLParseAdaptor", "Process", fault.ParseError).
		Ctor("TCPFrameAdaptor", "TCPFrameAdaptor.New").
		Method("TCPFrameAdaptor", "AdaptorName").
		Method("TCPFrameAdaptor", "Process", fault.IllegalArgument).
		Method("TCPFrameAdaptor", "EncodeFrame", fault.CapacityExceeded).
		Method("TCPFrameAdaptor", "countFrames", fault.IllegalState).
		Ctor("StructConvAdaptor", "StructConvAdaptor.New", fault.IllegalArgument).
		Method("StructConvAdaptor", "AdaptorName").
		Method("StructConvAdaptor", "Process", fault.IllegalArgument).
		Method("StructConvAdaptor", "emitFlat", fault.IllegalArgument).
		Method("StructConvAdaptor", "emitNested", fault.IllegalArgument).
		Method("StructConvAdaptor", "CheckIdent", fault.IllegalArgument).
		Ctor("XMLRenameAdaptor", "XMLRenameAdaptor.New").
		Method("XMLRenameAdaptor", "AdaptorName").
		Method("XMLRenameAdaptor", "Process", fault.IllegalArgument).
		Method("XMLRenameAdaptor", "Rewrite")
}
