package inject

import (
	"sync"
	"sync/atomic"

	"failatomic/internal/core"
)

// worker is one campaign goroutine's run state: the session every run it
// executes resets and binds, and the buffers its executions read in place.
// Workers outlive campaigns: a campaign takes each of its workers (the
// clean run's and one per sweep goroutine) off the process's idle stack
// and gives them back when it ends, so the next campaign's runs start on
// warm sessions, frame stacks, walkers and free lists instead of the heap.
// The session is nil until the first run, and again after a supervised
// attempt abandoned it (see supervise.go).
type worker struct {
	session *core.Session

	// calls, diffs and stats hold the mark calls, clean-run diff paths and
	// masking statistics of every pass of the experiment the worker is
	// running, appended pass after pass; each pass's execution slices its
	// own part, so a first pass stays readable while settling reruns or
	// replays it. begin empties them for the next experiment.
	calls []core.CallID
	diffs []string
	stats []core.MethodStat

	// totals sums the masking statistics of the runs the worker recorded
	// in its current campaign.
	totals core.MaskTotals

	// abandoned: a supervised attempt that never finished took one of the
	// worker's sessions, and its goroutine may still be running on it and
	// on the campaign's span index. Such a worker is never given back.
	abandoned bool
}

// maxIdleWorkers bounds the idle stack. A sequential campaign holds two
// workers (its clean run's and one sweep worker), a campaign at
// Parallelism 4 holds five; beyond the bound a given-back worker is left
// to the collector.
const maxIdleWorkers = 8

// idle is the process's stack of idle workers, last given back first
// taken. It is not a sync.Pool: a collection empties a sync.Pool, so how
// much a campaign allocates would depend on when the collector last ran.
var idle struct {
	sync.Mutex
	workers []*worker
}

// reclaims counts the campaigns that handed their clean captures back to
// their clean worker (Campaign).
var reclaims atomic.Int64

// takeWorker returns an idle worker, or a new one when none is idle.
func takeWorker() *worker {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.workers)
	if n == 0 {
		return new(worker)
	}
	w := idle.workers[n-1]
	idle.workers[n-1] = nil
	idle.workers = idle.workers[:n-1]
	return w
}

// giveBack ends w's campaign: w's totals are cleared and w goes on the
// idle stack, unless an attempt abandoned one of its sessions or the stack
// is full.
func (w *worker) giveBack() {
	if w.abandoned {
		return
	}
	w.begin()
	clear(w.totals)
	idle.Lock()
	defer idle.Unlock()
	if len(idle.workers) < maxIdleWorkers {
		idle.workers = append(idle.workers, w)
	}
}

// begin empties the per-experiment buffers before the worker runs its
// next experiment.
func (w *worker) begin() {
	w.calls, w.diffs, w.stats = w.calls[:0], w.diffs[:0], w.stats[:0]
}

// start readies the worker's session for one run under cfg.
func (w *worker) start(cfg core.Config) *core.Session {
	if w.session == nil {
		w.session = core.NewSession(cfg)
	} else {
		w.session.Reset(cfg)
	}
	return w.session
}

// appended returns what an append to buf added past its first n
// elements, capped so that nothing appended to the result reaches buf,
// or nil when nothing was.
func appended[T any](buf []T, n int) []T {
	if len(buf) == n {
		return nil
	}
	return buf[n:len(buf):len(buf)]
}
