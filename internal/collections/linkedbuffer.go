package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mLBChunkNew            = core.Method("LBChunk.New")
	mLBChunkFull           = core.Method("LBChunk.Full")
	mLBChunkPush           = core.Method("LBChunk.Push")
	mLinkedBufferNew       = core.Method("LinkedBuffer.New")
	mLinkedBufferSize      = core.Method("LinkedBuffer.Size")
	mLinkedBufferIsEmpty   = core.Method("LinkedBuffer.IsEmpty")
	mLinkedBufferAppend    = core.Method("LinkedBuffer.Append")
	mLinkedBufferAppendAll = core.Method("LinkedBuffer.AppendAll")
	mLinkedBufferPeek      = core.Method("LinkedBuffer.Peek")
	mLinkedBufferTake      = core.Method("LinkedBuffer.Take")
	mLinkedBufferTakeAll   = core.Method("LinkedBuffer.TakeAll")
	mLinkedBufferClear     = core.Method("LinkedBuffer.Clear")
	mLinkedBufferToSlice   = core.Method("LinkedBuffer.ToSlice")
	mLinkedBufferscreen    = core.Method("LinkedBuffer.screen")
)

// LBChunk is one fixed-capacity chunk of a LinkedBuffer.
type LBChunk struct {
	Data []Item
	Used int
	Next *LBChunk
}

// LBChunkCapacity is the per-chunk slot count.
const LBChunkCapacity = 4

// NewLBChunk returns an empty chunk.
func NewLBChunk() *LBChunk {
	defer mLBChunkNew.Enter(nil)()
	return &LBChunk{Data: make([]Item, LBChunkCapacity)}
}

// Full reports whether the chunk has no free slot.
func (c *LBChunk) Full() bool {
	defer mLBChunkFull.Enter(c)()
	return c.Used == len(c.Data)
}

// Push appends v to the chunk; the caller must ensure space.
func (c *LBChunk) Push(v Item) {
	defer mLBChunkPush.Enter(c)()
	if c.Used == len(c.Data) {
		fault.Throw(fault.CapacityExceeded, "LBChunk.Push", "chunk full")
	}
	c.Data[c.Used] = v
	c.Used++
}

// LinkedBuffer is a FIFO buffer of linked fixed-size chunks, in the
// original library's style: Count is maintained eagerly at the buffer
// level while the chunk chain is updated step by step.
type LinkedBuffer struct {
	Head    *LBChunk
	Tail    *LBChunk
	ReadPos int
	Count   int
	Version int
	Screen  Screener
}

// NewLinkedBuffer returns an empty buffer.
func NewLinkedBuffer(screen Screener) *LinkedBuffer {
	defer mLinkedBufferNew.Enter(nil)()
	return &LinkedBuffer{Screen: screen}
}

// Size returns the number of buffered elements.
func (b *LinkedBuffer) Size() int {
	defer mLinkedBufferSize.Enter(b)()
	return b.Count
}

// IsEmpty reports whether the buffer has no elements.
func (b *LinkedBuffer) IsEmpty() bool {
	defer mLinkedBufferIsEmpty.Enter(b)()
	return b.Count == 0
}

// Append adds v at the tail. Count is bumped and a fresh chunk may be
// linked before the element is screened (original idiom).
func (b *LinkedBuffer) Append(v Item) {
	defer mLinkedBufferAppend.Enter(b)()
	b.Version++
	b.Count++
	if b.Tail == nil {
		b.Head = NewLBChunk()
		b.Tail = b.Head
	} else if b.Tail.Full() {
		b.Tail.Next = NewLBChunk()
		b.Tail = b.Tail.Next
	}
	b.screen(v)
	b.Tail.Push(v)
}

// AppendAll appends every element of vals; partial progress on exception
// is inherent.
func (b *LinkedBuffer) AppendAll(vals []Item) {
	defer mLinkedBufferAppendAll.Enter(b)()
	for _, v := range vals {
		b.Append(v)
	}
}

// Peek returns the oldest element without removing it.
func (b *LinkedBuffer) Peek() Item {
	defer mLinkedBufferPeek.Enter(b)()
	if b.Count == 0 {
		fault.Throw(fault.NoSuchElement, "LinkedBuffer.Peek", "empty buffer")
	}
	return b.Head.Data[b.ReadPos]
}

// Take removes and returns the oldest element. The version bump precedes
// the emptiness check.
func (b *LinkedBuffer) Take() Item {
	defer mLinkedBufferTake.Enter(b)()
	b.Version++
	if b.Count == 0 {
		fault.Throw(fault.NoSuchElement, "LinkedBuffer.Take", "empty buffer")
	}
	v := b.Head.Data[b.ReadPos]
	b.Head.Data[b.ReadPos] = nil
	b.ReadPos++
	b.Count--
	if b.ReadPos == b.Head.Used {
		b.Head = b.Head.Next
		b.ReadPos = 0
		if b.Head == nil {
			b.Tail = nil
		}
	}
	return v
}

// TakeAll drains the buffer into a slice, element by element.
func (b *LinkedBuffer) TakeAll() []Item {
	defer mLinkedBufferTakeAll.Enter(b)()
	out := make([]Item, 0, b.Count)
	for b.Count > 0 {
		out = append(out, b.Take())
	}
	return out
}

// Clear drops all chunks.
func (b *LinkedBuffer) Clear() {
	defer mLinkedBufferClear.Enter(b)()
	b.Version++
	b.Head = nil
	b.Tail = nil
	b.ReadPos = 0
	b.Count = 0
}

// ToSlice copies the buffered elements, oldest first, without draining.
func (b *LinkedBuffer) ToSlice() []Item {
	defer mLinkedBufferToSlice.Enter(b)()
	out := make([]Item, 0, b.Count)
	pos := b.ReadPos
	for c := b.Head; c != nil; c = c.Next {
		for ; pos < c.Used; pos++ {
			out = append(out, c.Data[pos])
		}
		pos = 0
	}
	return out
}

// screen validates an element.
func (b *LinkedBuffer) screen(v Item) {
	defer mLinkedBufferscreen.Enter(b)()
	checkElement("LinkedBuffer.screen", b.Screen, v)
}

// RegisterLinkedBuffer adds the buffer classes to a registry.
func RegisterLinkedBuffer(r *core.Registry) {
	r.Ctor("LBChunk", "LBChunk.New").
		Method("LBChunk", "Full").
		Method("LBChunk", "Push", fault.CapacityExceeded).
		Ctor("LinkedBuffer", "LinkedBuffer.New").
		Method("LinkedBuffer", "Size").
		Method("LinkedBuffer", "IsEmpty").
		Method("LinkedBuffer", "Append", fault.IllegalElement).
		Method("LinkedBuffer", "AppendAll", fault.IllegalElement).
		Method("LinkedBuffer", "Peek", fault.NoSuchElement).
		Method("LinkedBuffer", "Take", fault.NoSuchElement).
		Method("LinkedBuffer", "TakeAll").
		Method("LinkedBuffer", "Clear").
		Method("LinkedBuffer", "ToSlice").
		Method("LinkedBuffer", "screen", fault.IllegalElement)
}
