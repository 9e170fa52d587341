package selfstar

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mSupervisorNew     = core.Method("Supervisor.New")
	mSupervisorDeliver = core.Method("Supervisor.Deliver")
	mSupervisorDrain   = core.Method("Supervisor.Drain")
)

// Supervisor is Self*'s recovery component: it drives messages through a
// chain with bounded retries, quarantining messages that keep failing.
// This is the consumer of failure atomicity — "recovery is often based on
// retrying failed methods" (§3) — and its correctness depends on the
// chain's components staying consistent across the failed attempts.
type Supervisor struct {
	Chain       *AdaptorChain
	MaxRetries  int
	Delivered   int
	Quarantined []*Message
}

// NewSupervisor wraps a chain with a retry budget per message.
func NewSupervisor(chain *AdaptorChain, maxRetries int) *Supervisor {
	defer mSupervisorNew.Enter(nil)()
	if chain == nil {
		fault.Throw(fault.IllegalArgument, "Supervisor.New", "nil chain")
	}
	if maxRetries < 0 {
		fault.Throw(fault.IllegalArgument, "Supervisor.New", "negative retries")
	}
	return &Supervisor{Chain: chain, MaxRetries: maxRetries}
}

// Deliver pushes one message with retries; permanently failing messages
// are quarantined and reported via the returned ok flag.
func (s *Supervisor) Deliver(m *Message) (out *Message, ok bool) {
	defer mSupervisorDeliver.Enter(s)()
	for attempt := 0; attempt <= s.MaxRetries; attempt++ {
		out = s.Chain.PushGuarded(m)
		if out != nil {
			s.Delivered++
			return out, true
		}
	}
	s.Quarantined = append(s.Quarantined, m)
	return nil, false
}

// Drain delivers every message waiting in a queue, in order; quarantined
// messages do not stop the drain.
func (s *Supervisor) Drain(q *StdQueue) int {
	defer mSupervisorDrain.Enter(s, q)()
	delivered := 0
	for !q.IsEmpty() {
		if _, ok := s.Deliver(q.Dequeue()); ok {
			delivered++
		}
	}
	return delivered
}

// RegisterSupervisor adds the supervisor class to a registry.
func RegisterSupervisor(r *core.Registry) {
	r.Ctor("Supervisor", "Supervisor.New", fault.IllegalArgument).
		Method("Supervisor", "Deliver").
		Method("Supervisor", "Drain", fault.NoSuchElement)
}
