package selfstar

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mMsgSourceNew          = core.Method("MsgSource.New")
	mMsgSourceNext         = core.Method("MsgSource.Next")
	mQueueProbeNew         = core.Method("QueueProbe.New")
	mQueueProbeDepth       = core.Method("QueueProbe.Depth")
	mQueueProbeUtilization = core.Method("QueueProbe.Utilization")
)

// MsgSource produces sequentially numbered messages for a pipeline.
type MsgSource struct {
	NextID int
	Prefix string
}

// NewMsgSource returns a source starting at id 1.
func NewMsgSource(prefix string) *MsgSource {
	defer mMsgSourceNew.Enter(nil)()
	return &MsgSource{NextID: 1, Prefix: prefix}
}

// Next returns a fresh message and advances the sequence.
func (s *MsgSource) Next() *Message {
	defer mMsgSourceNext.Enter(s)()
	m := &Message{ID: s.NextID, Text: s.Prefix}
	s.NextID++
	return m
}

// QueueProbe is a read-only monitoring component over queues.
type QueueProbe struct {
	Samples int
	MaxSeen int
}

// NewQueueProbe returns a probe.
func NewQueueProbe() *QueueProbe {
	defer mQueueProbeNew.Enter(nil)()
	return &QueueProbe{}
}

// Depth samples a queue's depth.
func (p *QueueProbe) Depth(q *StdQueue) int {
	defer mQueueProbeDepth.Enter(p)()
	d := q.Size()
	p.Samples++
	if d > p.MaxSeen {
		p.MaxSeen = d
	}
	return d
}

// Utilization returns a queue's fill ratio in percent.
func (p *QueueProbe) Utilization(q *StdQueue) int {
	defer mQueueProbeUtilization.Enter(p)()
	if q.Capacity == 0 {
		fault.Throw(fault.IllegalArgument, "QueueProbe.Utilization", "zero-capacity queue")
	}
	return 100 * q.Size() / q.Capacity
}

// RegisterProbe adds the source and probe classes to a registry.
func RegisterProbe(r *core.Registry) {
	r.Ctor("MsgSource", "MsgSource.New").
		Method("MsgSource", "Next").
		Ctor("QueueProbe", "QueueProbe.New").
		Method("QueueProbe", "Depth").
		Method("QueueProbe", "Utilization", fault.IllegalArgument)
}
