package core

import (
	"sync"
	"sync/atomic"
)

// Goroutine-scoped session binding. The paper's system is single-threaded
// and the legacy Install/Uninstall global slot mirrors that; scoped
// bindings lift the restriction so independent injector runs (one session
// per campaign worker) can execute concurrently. A binding maps a
// goroutine-local key (see gls_label.go) to a session in a sharded
// registry; Enter consults the registry only when at least one binding
// exists and falls back to the legacy global, so every existing call site
// keeps working and the no-session fast path stays a single atomic load.
// Every Bind installs a fresh key, kept alive until the Bind returns, so
// no key is ever in the registry twice and a nested Bind's entry is
// simply inserted and deleted; the outer binding's entry stays put.
//
// The common case is one live binding per shard: a campaign worker's
// goroutine bound to its session. Each shard therefore also publishes its
// most recent binding as an immutable {key, session} record, allocated
// once per Bind. A prologue whose key matches the record takes one atomic
// load and one compare; only a miss (a second binding in the shard, or an
// unbound goroutine) reads the shard's locked map. The record always
// agrees with the map: it is replaced under the shard lock whenever its
// key's entry changes.

// nBindShards spreads bindings over independently locked maps so worker
// pools don't serialize on one mutex. Power of two for cheap masking.
const nBindShards = 64

type bindShard struct {
	// last is the shard's most recent binding, nil when it was undone.
	last atomic.Pointer[binding]
	mu   sync.RWMutex
	m    map[uintptr]*Session
	// pad keeps adjacent shards on distinct cache lines; without it two
	// shards share a 64-byte line and concurrent RLocks false-share.
	pad [64 - 40]byte //nolint:structcheck // padding only
}

// binding is one published key → session entry; never mutated.
type binding struct {
	key     uintptr
	session *Session
}

var bindShards [nBindShards]bindShard

func init() {
	for i := range bindShards {
		bindShards[i].m = make(map[uintptr]*Session)
	}
}

// shardFor picks the shard for a binding key (a label-map pointer); the
// Fibonacci multiplier spreads the pointers' aligned low bits well.
func shardFor(key uintptr) *bindShard {
	return &bindShards[(uint64(key)*0x9E3779B97F4A7C15)>>32&(nBindShards-1)]
}

// activity counts every reason a prologue must do work: one for an
// installed global session plus one per live goroutine binding. Enter
// loads only this counter on the no-session fast path, so uninstrumented
// production cost is unchanged by the binding registry.
var activity atomic.Int64

// boundCount counts live goroutine bindings. When zero, Enter skips the
// binding lookup entirely, which keeps the production masking path (a
// Protect global session, no bindings) at its original cost.
var boundCount atomic.Int64

// Bind runs fn with s bound to the calling goroutine: every instrumented
// prologue fn executes routes to s, overriding an installed global
// session. Goroutines spawned inside fn inherit the binding (they carry
// the same goroutine-local key), so a bound session covers a concurrent
// workload exactly as an installed global would — including §4.4's
// caveats, mitigated by Config.Serialize. Bindings nest; the previous
// binding is restored when fn returns or panics. Distinct goroutines may
// bind distinct sessions concurrently — the basis of parallel campaigns.
func (s *Session) Bind(fn func()) {
	if fn == nil {
		return
	}
	key, restore := glsBind()
	sh := shardFor(key)
	sh.mu.Lock()
	sh.m[key] = s
	sh.last.Store(&binding{key: key, session: s})
	sh.mu.Unlock()
	boundCount.Add(1)
	activity.Add(1)
	defer func() {
		sh.mu.Lock()
		delete(sh.m, key)
		if b := sh.last.Load(); b != nil && b.key == key {
			// Republish the shard's remaining binding when there is
			// exactly one, else leave the misses to the map.
			var next *binding
			if len(sh.m) == 1 {
				for k, s := range sh.m {
					next = &binding{key: k, session: s}
				}
			}
			sh.last.Store(next)
		}
		sh.mu.Unlock()
		boundCount.Add(-1)
		activity.Add(-1)
		restore()
	}()
	fn()
}

// bound returns the session bound to the current goroutine, or nil. Only
// called when boundCount is nonzero.
func bound() *Session {
	key := glsKey()
	if key == 0 {
		return nil
	}
	sh := shardFor(key)
	if b := sh.last.Load(); b != nil && b.key == key {
		return b.session
	}
	sh.mu.RLock()
	s := sh.m[key]
	sh.mu.RUnlock()
	return s
}

// Current returns the session instrumented calls on this goroutine would
// route to: the goroutine's binding if one exists, else the installed
// global session, else nil.
func Current() *Session {
	if boundCount.Load() != 0 {
		if s := bound(); s != nil {
			return s
		}
	}
	return _active.Load()
}
