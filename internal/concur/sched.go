// The deterministic cooperative scheduler. One worker goroutine per
// script, but only one ever runs at a time: the driver grants turns over
// per-worker channels and blocks until the granted worker reports back,
// so every channel handoff is a happens-before edge (the schedule is
// race-clean by construction) and the interleaving is a pure function of
// the schedule's seeded RNG. A worker runs one whole operation per turn
// unless the operation reaches a Gap window, where it yields the token
// back mid-operation — the only source of overlapping intervals in the
// recorded history.
package concur

import (
	"math/rand"

	"failatomic/internal/core"
	"failatomic/internal/fault"
	"failatomic/internal/inject"
)

// histEntry pairs a recorded history operation with the script Op that
// produced it, which the checker replays against the model.
type histEntry struct {
	op  Op
	rec inject.ConcurOp
}

// schedResult is what one scheduled execution observed.
type schedResult struct {
	entries []histEntry
	final   string
	// injected is the designated worker's injected exception (nil when
	// the point was never reached, and always nil for the clean pass).
	injected *fault.Exception
	// faultIdx indexes the history entry the injected exception escaped
	// from; -1 when none.
	faultIdx int
	// points/calls are the per-worker session observations (the clean
	// pass sizes the schedule plan from points). calls is read only off
	// the clean pass, so only the clean pass builds it.
	points []int
	calls  []map[string]int64
}

// sessionFor builds one worker's session: every worker counts injection
// points, only the designated worker's counter ever fires. Graph
// detection stays off — atomicity is judged by the linearization checker,
// not by snapshots, which would race with the other workers' view of the
// shared receiver.
func sessionFor(t *Target, point int) *core.Session {
	return core.NewSession(core.Config{
		Registry:       t.Registry,
		Inject:         true,
		InjectionPoint: point,
	})
}

// runSchedule executes one interleaving: rng drives the turn order,
// faultWorker/faultPoint designate the injection (-1/0 for the clean
// pass).
func runSchedule(t *Target, rng *rand.Rand, workers int, faultWorker, faultPoint int) schedResult {
	scripts := t.Scripts(workers)
	inst := t.New()

	type event struct {
		worker int
		done   bool
	}
	turns := make([]chan int, workers)
	for w := range turns {
		turns[w] = make(chan int)
	}
	events := make(chan event)

	// running is the worker currently holding the token; only that worker
	// touches it, and every handoff goes through a channel, so access is
	// ordered. The shared receiver's Gap closure reads it to know which
	// worker is yielding.
	running := 0
	steps := make([]int, workers)
	inst.SetGap(func() {
		w := running
		events <- event{worker: w}
		steps[w] = <-turns[w]
		running = w
	})

	sessions := make([]*core.Session, workers)
	entriesPer := make([][]histEntry, workers)
	for w := 0; w < workers; w++ {
		point := 0
		if w == faultWorker {
			point = faultPoint
		}
		sessions[w] = sessionFor(t, point)
		go func(w int, script []Op, sess *core.Session) {
			sess.Bind(func() {
				for i, op := range script {
					steps[w] = <-turns[w]
					running = w
					start := steps[w]
					resp, faulted := applyGuarded(inst, op)
					entriesPer[w] = append(entriesPer[w], histEntry{
						op: op,
						rec: inject.ConcurOp{
							Worker:  w,
							Name:    op.String(),
							Resp:    resp,
							Faulted: faulted,
							Start:   start,
							End:     steps[w],
						},
					})
					events <- event{worker: w, done: i == len(script)-1}
				}
			})
		}(w, scripts[w], sessions[w])
	}

	alive := make([]int, workers)
	for w := range alive {
		alive[w] = w
	}
	step := 0
	for len(alive) > 0 {
		i := rng.Intn(len(alive))
		w := alive[i]
		step++
		turns[w] <- step
		ev := <-events
		if ev.done {
			for j, a := range alive {
				if a == ev.worker {
					alive = append(alive[:j], alive[j+1:]...)
					break
				}
			}
		}
	}

	res := schedResult{
		final:    inst.Final(),
		faultIdx: -1,
		points:   make([]int, workers),
	}
	if faultWorker < 0 {
		res.calls = make([]map[string]int64, workers)
	}
	for w := 0; w < workers; w++ {
		res.entries = append(res.entries, entriesPer[w]...)
		res.points[w] = sessions[w].Point()
		if res.calls != nil {
			res.calls[w] = sessions[w].Calls()
		}
	}
	// Merge to one history in start-step order (start steps are unique:
	// each is a distinct grant).
	for i := 1; i < len(res.entries); i++ {
		for j := i; j > 0 && res.entries[j].rec.Start < res.entries[j-1].rec.Start; j-- {
			res.entries[j], res.entries[j-1] = res.entries[j-1], res.entries[j]
		}
	}
	if faultWorker >= 0 {
		res.injected = sessions[faultWorker].Injected()
	}
	for i, e := range res.entries {
		if e.rec.Faulted {
			res.faultIdx = i
			break
		}
	}
	return res
}

// applyGuarded executes one op, converting an escaping exception into its
// history response; faulted reports whether it was the injected one.
func applyGuarded(inst *Instance, op Op) (resp string, faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			exc := fault.From(r)
			resp = "throw:" + string(exc.Kind)
			faulted = exc.Injected
		}
	}()
	return inst.Apply(op), false
}
