package selfstar

import (
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mValidateAdaptorNew         = core.Method("ValidateAdaptor.New")
	mValidateAdaptorAdaptorName = core.Method("ValidateAdaptor.AdaptorName")
	mValidateAdaptorProcess     = core.Method("ValidateAdaptor.Process")
	mTokenizeAdaptorNew         = core.Method("TokenizeAdaptor.New")
	mTokenizeAdaptorAdaptorName = core.Method("TokenizeAdaptor.AdaptorName")
	mTokenizeAdaptorProcess     = core.Method("TokenizeAdaptor.Process")
	mCountAdaptorNew            = core.Method("CountAdaptor.New")
	mCountAdaptorAdaptorName    = core.Method("CountAdaptor.AdaptorName")
	mCountAdaptorProcess        = core.Method("CountAdaptor.Process")
)

// ValidateAdaptor rejects malformed messages before they enter a pipeline.
// It is stateless: rejection accounting belongs to the chain's guarded
// push, so a rejection leaves every object graph untouched.
type ValidateAdaptor struct {
	MaxLen int
}

// NewValidateAdaptor returns a validator enforcing a maximum text length.
func NewValidateAdaptor(maxLen int) *ValidateAdaptor {
	defer mValidateAdaptorNew.Enter(nil)()
	return &ValidateAdaptor{MaxLen: maxLen}
}

// AdaptorName implements Adaptor.
func (v *ValidateAdaptor) AdaptorName() string {
	defer mValidateAdaptorAdaptorName.Enter(v)()
	return "validate"
}

// Process throws IllegalArgument for empty or oversized messages.
func (v *ValidateAdaptor) Process(m *Message) *Message {
	defer mValidateAdaptorProcess.Enter(v)()
	if m.Text == "" {
		fault.Throw(fault.IllegalArgument, "ValidateAdaptor.Process", "empty message %d", m.ID)
	}
	if v.MaxLen > 0 && len(m.Text) > v.MaxLen {
		fault.Throw(fault.IllegalArgument, "ValidateAdaptor.Process",
			"message %d exceeds %d bytes", m.ID, v.MaxLen)
	}
	return m
}

// TokenizeAdaptor splits message text into tokens and normalizes case. It
// is stateless (interior pipeline stages must be, or a downstream failure
// strands their partial accounting); the token count travels in the
// message for the terminal CountAdaptor to aggregate.
type TokenizeAdaptor struct{}

// NewTokenizeAdaptor returns a tokenizer.
func NewTokenizeAdaptor() *TokenizeAdaptor {
	defer mTokenizeAdaptorNew.Enter(nil)()
	return &TokenizeAdaptor{}
}

// AdaptorName implements Adaptor.
func (a *TokenizeAdaptor) AdaptorName() string {
	defer mTokenizeAdaptorAdaptorName.Enter(a)()
	return "tokenize"
}

// Process rewrites the text as upper-cased, space-normalized tokens.
func (a *TokenizeAdaptor) Process(m *Message) *Message {
	defer mTokenizeAdaptorProcess.Enter(a)()
	fields := strings.Fields(m.Text)
	return &Message{ID: m.ID, Text: strings.ToUpper(strings.Join(fields, " "))}
}

// CountAdaptor tallies messages and byte volume.
type CountAdaptor struct {
	Messages int
	Bytes    int
}

// NewCountAdaptor returns a counter.
func NewCountAdaptor() *CountAdaptor {
	defer mCountAdaptorNew.Enter(nil)()
	return &CountAdaptor{}
}

// AdaptorName implements Adaptor.
func (a *CountAdaptor) AdaptorName() string {
	defer mCountAdaptorAdaptorName.Enter(a)()
	return "count"
}

// Process passes the message through, committing both counters together.
func (a *CountAdaptor) Process(m *Message) *Message {
	defer mCountAdaptorProcess.Enter(a)()
	a.Messages++
	a.Bytes += len(m.Text) + len(m.Bytes)
	return m
}

// RegisterAdaptors adds the basic adaptor classes to a registry.
func RegisterAdaptors(r *core.Registry) {
	r.Ctor("ValidateAdaptor", "ValidateAdaptor.New").
		Method("ValidateAdaptor", "AdaptorName").
		Method("ValidateAdaptor", "Process", fault.IllegalArgument).
		Ctor("TokenizeAdaptor", "TokenizeAdaptor.New").
		Method("TokenizeAdaptor", "AdaptorName").
		Method("TokenizeAdaptor", "Process").
		Ctor("CountAdaptor", "CountAdaptor.New").
		Method("CountAdaptor", "AdaptorName").
		Method("CountAdaptor", "Process")
}
