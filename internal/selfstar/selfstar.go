// Package selfstar is a Go rebuild of Self*, the component-based,
// data-flow-oriented C++ framework the paper's C++ evaluation runs on
// (Fetzer & Högstedt, WORDS 2003). Applications are chains of adaptors
// that transform messages; queues buffer messages between components.
//
// Unlike the collections substrate, this code is written in the careful
// compute-then-commit style the paper attributes to Self* ("programmed
// carefully, with failure atomicity in mind"): validation precedes
// mutation and state commits last, so the proportion of pure failure
// non-atomic methods is small — the property Figure 2 demonstrates.
package selfstar

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
	"failatomic/internal/xmlite"
)

// Method handles of the instrumented methods below.
var (
	mAdaptorChainNew          = core.Method("AdaptorChain.New")
	mAdaptorChainAddStage     = core.Method("AdaptorChain.AddStage")
	mAdaptorChainPush         = core.Method("AdaptorChain.Push")
	mAdaptorChainPushAll      = core.Method("AdaptorChain.PushAll")
	mAdaptorChainPushGuarded  = core.Method("AdaptorChain.PushGuarded")
	mAdaptorChainPushReliably = core.Method("AdaptorChain.PushReliably")
	mStdQueueNew              = core.Method("StdQueue.New")
	mStdQueueSize             = core.Method("StdQueue.Size")
	mStdQueueIsEmpty          = core.Method("StdQueue.IsEmpty")
	mStdQueueIsFull           = core.Method("StdQueue.IsFull")
	mStdQueueEnqueue          = core.Method("StdQueue.Enqueue")
	mStdQueueDequeue          = core.Method("StdQueue.Dequeue")
	mStdQueuePeek             = core.Method("StdQueue.Peek")
	mStdQueueClear            = core.Method("StdQueue.Clear")
	mStdQueueDrainTo          = core.Method("StdQueue.DrainTo")
)

// Message is the unit of data flow between components.
type Message struct {
	ID    int
	Text  string
	Bytes []byte
	Doc   *xmlite.Element
}

// Adaptor transforms messages; adaptors are chained into pipelines.
// Process may throw; a robust pipeline catches, repairs and retries —
// which is only sound if Process is failure atomic.
type Adaptor interface {
	// AdaptorName identifies the component in reports.
	AdaptorName() string
	// Process transforms a message, returning the transformed message.
	Process(m *Message) *Message
}

// AdaptorChain pushes messages through a sequence of adaptors.
type AdaptorChain struct {
	Stages    []Adaptor
	Processed int
	Failed    int
}

// NewAdaptorChain builds a chain over the given stages.
func NewAdaptorChain(stages ...Adaptor) *AdaptorChain {
	defer mAdaptorChainNew.Enter(nil)()
	return &AdaptorChain{Stages: stages}
}

// AddStage appends a stage to the chain.
func (c *AdaptorChain) AddStage(a Adaptor) {
	defer mAdaptorChainAddStage.Enter(c)()
	if a == nil {
		fault.Throw(fault.IllegalArgument, "AdaptorChain.AddStage", "nil adaptor")
	}
	c.Stages = append(c.Stages, a)
}

// Push runs one message through every stage; counters commit only after
// the full chain succeeded (compute-then-commit).
func (c *AdaptorChain) Push(m *Message) *Message {
	defer mAdaptorChainPush.Enter(c)()
	if m == nil {
		fault.Throw(fault.IllegalArgument, "AdaptorChain.Push", "nil message")
	}
	out := m
	for _, stage := range c.Stages {
		out = stage.Process(out)
	}
	c.Processed++
	return out
}

// PushAll pushes a batch; an exception mid-batch leaves earlier messages
// processed — one of the few inherently non-atomic methods in the
// framework.
func (c *AdaptorChain) PushAll(msgs []*Message) []*Message {
	defer mAdaptorChainPushAll.Enter(c)()
	out := make([]*Message, 0, len(msgs))
	for _, m := range msgs {
		out = append(out, c.Push(m))
	}
	return out
}

// PushGuarded pushes one message, converting an exceptional result into a
// failure count — the framework's retry seam.
func (c *AdaptorChain) PushGuarded(m *Message) (out *Message) {
	defer mAdaptorChainPushGuarded.Enter(c)()
	defer func() {
		if r := recover(); r != nil {
			c.Failed++
			out = nil
		}
	}()
	return c.Push(m)
}

// PushReliably pushes one message with a single internal retry: a first
// failure is counted against the chain and the push is re-attempted; a
// second failure propagates to the caller. The retry bookkeeping is the
// state a one-fault-per-run detector never observes mid-flight — the
// method is failure atomic under first-activation injection (the caught
// fault is retried to success) but not under a fault burst, whose second
// fault unwinds out of the retry with Failed already advanced.
func (c *AdaptorChain) PushReliably(m *Message) *Message {
	defer mAdaptorChainPushReliably.Enter(c)()
	if out, ok := c.tryPush(m); ok {
		return out
	}
	c.Failed++
	return c.Push(m)
}

// tryPush attempts one push, converting an exceptional result into
// ok=false. Not an instrumented boundary: the retry seam belongs to
// PushReliably.
//
//failatomic:ignore
func (c *AdaptorChain) tryPush(m *Message) (out *Message, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			out, ok = nil, false
		}
	}()
	return c.Push(m), true
}

// StdQueue is Self*'s bounded FIFO queue component ("stdQ"), written in
// the validate-first style.
type StdQueue struct {
	Items    []*Message
	Head     int
	Count    int
	Capacity int
	Version  int
}

// NewStdQueue returns an empty queue with the given capacity.
func NewStdQueue(capacity int) *StdQueue {
	defer mStdQueueNew.Enter(nil)()
	if capacity <= 0 {
		fault.Throw(fault.IllegalArgument, "StdQueue.New", "capacity %d", capacity)
	}
	return &StdQueue{Items: make([]*Message, capacity), Capacity: capacity}
}

// Size returns the number of queued messages.
func (q *StdQueue) Size() int {
	defer mStdQueueSize.Enter(q)()
	return q.Count
}

// IsEmpty reports whether the queue has no messages.
func (q *StdQueue) IsEmpty() bool {
	defer mStdQueueIsEmpty.Enter(q)()
	return q.Count == 0
}

// IsFull reports whether the queue is at capacity.
func (q *StdQueue) IsFull() bool {
	defer mStdQueueIsFull.Enter(q)()
	return q.Count == q.Capacity
}

// Enqueue appends a message; all checks precede the commit.
func (q *StdQueue) Enqueue(m *Message) {
	defer mStdQueueEnqueue.Enter(q)()
	if m == nil {
		fault.Throw(fault.IllegalArgument, "StdQueue.Enqueue", "nil message")
	}
	if q.Count == q.Capacity {
		fault.Throw(fault.CapacityExceeded, "StdQueue.Enqueue",
			"capacity %d reached", q.Capacity)
	}
	q.Items[(q.Head+q.Count)%q.Capacity] = m
	q.Count++
	q.Version++
}

// Dequeue removes and returns the oldest message.
func (q *StdQueue) Dequeue() *Message {
	defer mStdQueueDequeue.Enter(q)()
	if q.Count == 0 {
		fault.Throw(fault.NoSuchElement, "StdQueue.Dequeue", "empty queue")
	}
	m := q.Items[q.Head]
	q.Items[q.Head] = nil
	q.Head = (q.Head + 1) % q.Capacity
	q.Count--
	q.Version++
	return m
}

// Peek returns the oldest message without removing it.
func (q *StdQueue) Peek() *Message {
	defer mStdQueuePeek.Enter(q)()
	if q.Count == 0 {
		fault.Throw(fault.NoSuchElement, "StdQueue.Peek", "empty queue")
	}
	return q.Items[q.Head]
}

// Clear drops all messages.
func (q *StdQueue) Clear() {
	defer mStdQueueClear.Enter(q)()
	for i := range q.Items {
		q.Items[i] = nil
	}
	q.Head = 0
	q.Count = 0
	q.Version++
}

// DrainTo moves every message into dst, one at a time — inherently
// non-atomic across the pair on mid-drain exceptions.
func (q *StdQueue) DrainTo(dst *StdQueue) int {
	defer mStdQueueDrainTo.Enter(q, dst)()
	moved := 0
	for q.Count > 0 {
		dst.Enqueue(q.Dequeue())
		moved++
	}
	return moved
}

// RegisterFramework adds the chain and queue classes to a registry.
func RegisterFramework(r *core.Registry) {
	r.Ctor("AdaptorChain", "AdaptorChain.New").
		Method("AdaptorChain", "AddStage", fault.IllegalArgument).
		Method("AdaptorChain", "Push", fault.IllegalArgument).
		Method("AdaptorChain", "PushAll", fault.IllegalArgument).
		Method("AdaptorChain", "PushGuarded").
		Method("AdaptorChain", "PushReliably", fault.IllegalArgument).
		Ctor("StdQueue", "StdQueue.New", fault.IllegalArgument).
		Method("StdQueue", "Size").
		Method("StdQueue", "IsEmpty").
		Method("StdQueue", "IsFull").
		Method("StdQueue", "Enqueue", fault.IllegalArgument, fault.CapacityExceeded).
		Method("StdQueue", "Dequeue", fault.NoSuchElement).
		Method("StdQueue", "Peek", fault.NoSuchElement).
		Method("StdQueue", "Clear").
		Method("StdQueue", "DrainTo", fault.CapacityExceeded)
}
