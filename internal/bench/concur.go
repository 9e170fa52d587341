// Concurrent schedule-sweep cost cells: fabench -concur measures what a
// schedule campaign costs as the schedule count grows, per worker count —
// the knob a user turns when deciding how hard to search for a
// non-linearizable interleaving. Cells reuse the Result shape of the
// snapshot suite so the JSON artifact and renderer compose unchanged.
package bench

import (
	"context"
	"fmt"
	"testing"

	"failatomic/internal/concur"
)

// concurSweepWorkers and concurSweepSchedules are the sweep grid: worker
// counts bracketing the default, schedule counts doubling up to the
// default campaign size.
var (
	concurSweepWorkers   = []int{2, 4}
	concurSweepSchedules = []int{8, 16, 32, 64}
)

// ConcurSuite measures one full schedule campaign per (workers, sched)
// grid cell for the named concurrent target under the given seed. Each
// cell is a whole campaign — clean pass, schedule plan, every faulted
// schedule, linearization checks and report rendering — so the cost cells
// track exactly what fadetect -concur pays.
func ConcurSuite(targetName string, seed int64) ([]Result, error) {
	t, ok := concur.ByName(targetName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown concurrent target %q (have: %v)", targetName, concur.Names())
	}
	seed = concur.EffectiveSeed(seed)
	var out []Result
	for _, workers := range concurSweepWorkers {
		for _, sched := range concurSweepSchedules {
			workers, sched := workers, sched
			out = append(out, measure(
				fmt.Sprintf("campaign-concur/%s/workers=%d/sched=%d", t.Name, workers, sched),
				func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := concur.Campaign(context.Background(), &t, concur.Options{
							Workers:   workers,
							Schedules: sched,
							Seed:      seed,
						}); err != nil {
							b.Fatal(err)
						}
					}
				}))
		}
	}
	return out, nil
}
