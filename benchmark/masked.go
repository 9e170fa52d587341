package main

import (
	"fmt"
	"strconv"
	"time"

	"failatomic/internal/core"
	"failatomic/internal/harness"
	"failatomic/internal/inject"
	"failatomic/internal/mask"
)

// maskedApps span the masking overheads the paper's corrected programs
// pay, from cheap (xml2xml1) to expensive (RegExp).
var maskedApps = []string{"RBMap", "LinkedList", "xml2xml1", "HashedMap", "RegExp"}

const (
	// maskedBatch is the number of workload runs per batch.
	maskedBatch = 20
	// The Figure 5 item: a 64 KiB checkpointed object, 10 % of calls masked.
	fig5Name     = "BenchTarget"
	fig5Bytes    = 64 << 10
	fig5Calls    = 1000
	fig5MaskStep = 10
)

// maskedItem is one corrected program: a workload and the methods its
// §4.3 wrap plan masks.
type maskedItem struct {
	name string
	run  func()
	wrap map[string]bool
}

// maskedItems classifies each app with a Repeats=1 campaign, builds its
// wrap plan, and adds the Figure 5 synthetic target.
func maskedItems(b *bench) ([]maskedItem, error) {
	var items []maskedItem
	for _, app := range appsByName(maskedApps) {
		res, err := harness.RunApp(b.ctx, app, inject.Options{Repeats: 1, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		plan := mask.Build(res.Classification, nil, mask.Policy{})
		items = append(items, maskedItem{name: app.Name, run: app.Build().Run, wrap: plan.WrapSet()})
	}
	target := harness.NewBenchTarget(fig5Bytes)
	items = append(items, maskedItem{
		name: fig5Name,
		run: func() {
			for i := 0; i < fig5Calls; i++ {
				if i%fig5MaskStep == 0 {
					target.WorkMasked()
				} else {
					target.Work()
				}
			}
		},
		wrap: map[string]bool{"BenchTarget.WorkMasked": true},
	})
	// Warm-up: one bare and one masked batch per item.
	for _, it := range items {
		if _, err := bareBatch(it); err != nil {
			return nil, err
		}
		if _, err := b.maskedBatch(it, nil, 0, ""); err != nil {
			return nil, err
		}
	}
	return items, nil
}

func bareBatch(it maskedItem) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < maskedBatch; i++ {
		if err := guarded(it.run); err != nil {
			return 0, fmt.Errorf("%s: %w", it.name, err)
		}
	}
	return time.Since(start), nil
}

// maskedBatch runs a batch under a masking session that wraps exactly
// the item's plan, and checks that every planned call was checkpointed
// and none was skipped.
func (b *bench) maskedBatch(it maskedItem, tr *tracer, parent int, req string) (time.Duration, error) {
	s := core.NewSession(core.Config{Mask: true, MaskMethods: it.wrap})
	if err := core.Install(s); err != nil {
		return 0, err
	}
	sp := tr.begin(parent, req, "core.batch")
	start := time.Now()
	var err error
	for i := 0; i < maskedBatch && err == nil; i++ {
		err = guarded(it.run)
	}
	d := time.Since(start)
	tr.end(sp)
	core.Uninstall(s)
	if err != nil {
		return d, fmt.Errorf("%s: %w", it.name, err)
	}
	if skips := s.MaskSkips(); len(skips) > 0 {
		return d, fmt.Errorf("%s: %d masked calls skipped, first %s: %v", it.name, len(skips), skips[0].Method, skips[0].Err)
	}
	calls := s.MaskedCalls()
	if calls%maskedBatch != 0 {
		return d, fmt.Errorf("%s: %d masked calls in %d runs", it.name, calls, maskedBatch)
	}
	if err := b.check("masked/"+it.name+"/calls_per_run", strconv.FormatInt(calls/maskedBatch, 10)); err != nil {
		return d, err
	}
	if tr != nil {
		b.acc["masked_runs"] += maskedBatch
		b.acc["masked_calls"] += float64(calls)
		for _, st := range s.MaskStats() {
			b.acc["mask_bytes"] += float64(st.Bytes)
		}
	}
	return d, nil
}

// runMaskedRun alternates bare and masked batches of each corrected
// program, in a seeded order per cycle. No detection runs.
func runMaskedRun(b *bench) error {
	items, err := setUp(b, func() ([]maskedItem, error) { return maskedItems(b) }, func([]maskedItem) {})
	if err != nil {
		return err
	}
	if b.tr != nil {
		for _, it := range items {
			b.acc["wrap_methods"] += float64(len(it.wrap))
			b.acc["wrap_plans"]++
		}
	}
	return b.closedLoop(func(k int) error {
		// One reference slice before each item; the cycle's mean scales
		// all of its batches.
		p := newProber(0)
		first := len(b.samples)
		defer func() {
			ref := b.noteRef(p.ref())
			for i := first; i < len(b.samples); i++ {
				b.samples[i].ref = ref
			}
		}()
		for j, i := range b.rng.Perm(len(items)) {
			it := items[i]
			tr := b.tracerFor(k, j)
			req := fmt.Sprintf("m%d.%s", k, it.name)
			p.take()
			b.attempted++
			op := tr.begin(0, req, "bench.op")
			sp := tr.begin(op, req, "apps.batch")
			bare, err := bareBatch(it)
			tr.end(sp)
			if err != nil {
				return err
			}
			b.late(b.prevEnd)
			cpu := cpuTime()
			masked, err := b.maskedBatch(it, tr, op, req)
			cpu = cpuTime() - cpu
			b.prevEnd = time.Now()
			tr.end(op)
			if err != nil {
				b.fail("masked batch: %v", err)
				continue
			}
			b.samples = append(b.samples, sample{item: it.name, dur: masked, cpu: cpu, bare: bare, traced: tr != nil})
		}
		return nil
	})
}
