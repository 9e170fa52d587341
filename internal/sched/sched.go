// Package sched is faserve's multi-tenant job scheduler: per-token
// admission quotas, three priority classes, and weighted fair-share
// dequeue across tokens.
//
// The load-bearing property is determinism. An item's dequeue key is
// assigned at admission as a pure function of (arrival order, the
// token's configured shares, the item's priority class) and never
// changes afterwards: the key is (priority rank, Ord/Shares, Seq), where
// Ord is the item's per-(token, priority) arrival ordinal. Because the
// key is fixed at admission — not computed from queue state at dequeue
// time — a scheduler rebuilt from persisted items produces exactly the
// dequeue order the original would have produced for the remaining
// items, which is what lets faserve's kill/restart recovery keep its
// byte-identity guarantee under multi-tenant scheduling.
//
// One bit is added to the key after admission, exactly once: Dequeue
// marks the item Started, and a started item re-entering the queue
// (lease failover, a drain park) sorts before everything that has never
// started, regardless of class. Execution is non-preemptive — in an
// uninterrupted process a running job finishes before any queued one
// starts — so restart recovery can only reproduce the uninterrupted
// completion order if interrupted jobs resume first.
//
// Fair share is start-time fair queueing with integer arithmetic: a
// token with Shares=2 is charged half as much virtual time per job as a
// token with Shares=1, so its items interleave at twice the rate within
// a priority class. The comparison Ord_a/Shares_a < Ord_b/Shares_b is
// evaluated by cross-multiplication, so no floats enter the order.
//
// Priority classes are strict: every queued high item is eligible
// before any normal item, and normal before low. Starvation of the
// lower classes by one tenant is bounded by that tenant's MaxQueued and
// MaxRunning quotas, and fair share still interleaves tenants inside
// the class.
//
// The scheduler is a pure data structure: no goroutines, no clock, no
// locks. Callers (internal/serve) serialize access under their own
// mutex.
package sched

import (
	"fmt"
	"sort"
)

// Priority is a job's scheduling class. The zero value of its wire form
// ("") parses as Normal.
type Priority int

const (
	// High items dequeue before every Normal and Low item.
	High Priority = iota
	// Normal is the default class.
	Normal
	// Low items dequeue only when no higher class has eligible items.
	Low
)

// ParsePriority maps the wire form to a Priority; "" is Normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "high":
		return High, nil
	case "", "normal":
		return Normal, nil
	case "low":
		return Low, nil
	}
	return Normal, fmt.Errorf(`sched: unknown priority %q (have: "low", "normal", "high")`, s)
}

// String returns the wire form.
func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Low:
		return "low"
	}
	return "normal"
}

// ErrOverQuota reports an admission refused by the token's MaxQueued
// quota; faserve renders it as 429 with a Retry-After hint.
type ErrOverQuota struct {
	Token     string
	Queued    int
	MaxQueued int
}

func (e *ErrOverQuota) Error() string {
	name := e.Token
	if name == "" {
		name = "default"
	}
	return fmt.Sprintf("sched: token %q is over quota (%d of %d queued jobs)", name, e.Queued, e.MaxQueued)
}

// Item is one schedulable job. Every field except Started is assigned at
// admission and immutable afterwards, so persisting an Item and Restoring
// it into a fresh scheduler reproduces its position exactly.
type Item struct {
	// ID names the job.
	ID string `json:"id"`
	// Token is the tenant the job belongs to ("" = the default tenant).
	Token string `json:"token,omitempty"`
	// Priority is the scheduling class.
	Priority Priority `json:"priority"`
	// Seq is the global arrival ordinal (1-based): the final tie-break
	// and the pagination order of the job index.
	Seq uint64 `json:"seq"`
	// Ord is the per-(token, priority) arrival ordinal (1-based): the
	// numerator of the fair-share key Ord/Shares.
	Ord uint64 `json:"ord"`
	// Shares is the token's weight, captured at admission so a later
	// quota-file change cannot reorder already-admitted items.
	Shares int `json:"shares"`
	// Started records that the item was dequeued at least once. A started
	// item returned to the queue resumes before every never-started item:
	// execution is non-preemptive, so this is the only order under which
	// a restart reproduces the uninterrupted completion sequence.
	Started bool `json:"started,omitempty"`
}

// before is the scheduler's total order: resumed (started) items first,
// then priority class, then the weighted fair-share key Ord/Shares
// (cross-multiplied to stay in integers), then global arrival order. Seq
// is unique, so the order is total and deterministic.
func (a Item) before(b Item) bool {
	if a.Started != b.Started {
		return a.Started
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	av, bv := a.Ord*uint64(b.Shares), b.Ord*uint64(a.Shares)
	if av != bv {
		return av < bv
	}
	return a.Seq < b.Seq
}

// tokenClass keys the per-(token, priority) ordinal counters.
type tokenClass struct {
	token    string
	priority Priority
}

// Scheduler holds the queued items and the per-token accounting. Not
// safe for concurrent use; callers serialize.
type Scheduler struct {
	cfg Config

	// queue is kept sorted by Item.before; Dequeue scans it front to
	// back for the first item whose token is under its MaxRunning cap.
	queue []Item

	// nextSeq and ords assign admission ordinals. They only grow — a
	// token's history (including completed jobs) is part of its fair
	// share, so a tenant cannot reset its position by resubmitting.
	nextSeq uint64
	ords    map[tokenClass]uint64

	queued  map[string]int // token → queued items
	running map[string]int // token → dequeued-but-not-done items
}

// New builds a scheduler over the quota configuration.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:     cfg,
		ords:    make(map[tokenClass]uint64),
		queued:  make(map[string]int),
		running: make(map[string]int),
	}
}

// Admit assigns the item's scheduling key and enqueues it, or refuses
// with *ErrOverQuota when the token is at its MaxQueued cap. The
// returned Item is what the caller persists: Restore of the same value
// reproduces the same position.
func (s *Scheduler) Admit(id, token string, pri Priority) (Item, error) {
	q := s.cfg.Quota(token)
	if q.MaxQueued > 0 && s.queued[token] >= q.MaxQueued {
		return Item{}, &ErrOverQuota{Token: token, Queued: s.queued[token], MaxQueued: q.MaxQueued}
	}
	s.nextSeq++
	key := tokenClass{token, pri}
	s.ords[key]++
	it := Item{
		ID:       id,
		Token:    token,
		Priority: pri,
		Seq:      s.nextSeq,
		Ord:      s.ords[key],
		Shares:   q.Shares,
	}
	s.insert(it)
	return it, nil
}

// Restore re-enqueues a persisted item at boot, advancing the ordinal
// counters past it so post-restart admissions sort after it exactly as
// they would have in the uninterrupted process. Quotas are not
// re-checked: the item was admitted once. Shares is floored at 1 so a
// hand-edited manifest cannot zero the fair-share denominator.
func (s *Scheduler) Restore(it Item) {
	if it.Shares <= 0 {
		it.Shares = 1
	}
	s.NoteArrival(it)
	s.insert(it)
}

// NoteArrival advances the ordinal counters past a historical item
// without queueing it. Boot recovery calls it for every terminal job so
// the counters — and therefore the fair-share keys of everything
// admitted after the restart — match the uninterrupted process.
func (s *Scheduler) NoteArrival(it Item) {
	if it.Seq > s.nextSeq {
		s.nextSeq = it.Seq
	}
	key := tokenClass{it.Token, it.Priority}
	if it.Ord > s.ords[key] {
		s.ords[key] = it.Ord
	}
}

// insert places it into the sorted queue.
func (s *Scheduler) insert(it Item) {
	i := sort.Search(len(s.queue), func(i int) bool { return it.before(s.queue[i]) })
	s.queue = append(s.queue, Item{})
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = it
	s.queued[it.Token]++
}

// Dequeue returns the first queued item whose token is under its
// MaxRunning cap and charges the token a running slot. ok is false when
// nothing is eligible (empty queue, or every queued token is at its
// running cap). Among eligible items the order is the pure admission
// order; MaxRunning eligibility is the only dequeue-time input.
func (s *Scheduler) Dequeue() (Item, bool) {
	for i, it := range s.queue {
		q := s.cfg.Quota(it.Token)
		if q.MaxRunning > 0 && s.running[it.Token] >= q.MaxRunning {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.queued[it.Token]--
		s.running[it.Token]++
		it.Started = true
		return it, true
	}
	return Item{}, false
}

// Requeue returns a dequeued item to the queue — lease failover or a
// drain park. The Started mark it earned at dequeue puts it ahead of
// every never-started item: the job already won its slot once, and
// non-preemptive execution would have run it to completion.
func (s *Scheduler) Requeue(it Item) {
	it.Started = true
	s.decRunning(it.Token)
	s.insert(it)
}

// Done releases the running slot of a finished item (done, failed,
// cancelled or drifted).
func (s *Scheduler) Done(token string) {
	s.decRunning(token)
}

func (s *Scheduler) decRunning(token string) {
	if s.running[token] > 0 {
		s.running[token]--
	}
}

// Remove deletes a queued item by id (user cancellation before it
// started); it reports whether the item was queued.
func (s *Scheduler) Remove(id string) bool {
	for i, it := range s.queue {
		if it.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.queued[it.Token]--
			return true
		}
	}
	return false
}

// Depth reports the total queued count.
func (s *Scheduler) Depth() int { return len(s.queue) }

// Items returns a copy of the queued items in dequeue order (ignoring
// MaxRunning gating, which is a dequeue-time concern).
func (s *Scheduler) Items() []Item {
	out := make([]Item, len(s.queue))
	copy(out, s.queue)
	return out
}

// DepthByPriority reports the queued count per priority class.
func (s *Scheduler) DepthByPriority() map[Priority]int {
	m := make(map[Priority]int, 3)
	for _, it := range s.queue {
		m[it.Priority]++
	}
	return m
}

// QueuedFor reports the queued count for one token (admission-quota
// accounting, surfaced for tests and metrics).
func (s *Scheduler) QueuedFor(token string) int { return s.queued[token] }
