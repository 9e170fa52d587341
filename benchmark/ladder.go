package main

import (
	"fmt"
	"time"

	"failatomic/internal/apps"
	"failatomic/internal/core"
	"failatomic/internal/inject"
)

// The ablation ladder switches the session's layers on one at a time:
// no session, injection-point counting, an empty mask set, then detection
// with fingerprint or capture snapshots. Each rung times p.Run() alone.
const (
	cfgBare = iota
	cfgCount
	cfgMaskBase
	cfgFingerprint
	cfgCapture
	numRungs
)

var rungNames = [numRungs]string{"bare", "count", "mask_base", "fingerprint", "capture"}

// rungConfig returns the session configuration of one rung; nil is no
// session.
func rungConfig(rung int, p *inject.Program) *core.Config {
	switch rung {
	case cfgCount:
		return &core.Config{Registry: p.Registry, Inject: true}
	case cfgMaskBase:
		return &core.Config{Mask: true, MaskMethods: map[string]bool{}}
	case cfgFingerprint:
		return &core.Config{Registry: p.Registry, Inject: true, Detect: true, Snapshot: core.SnapshotFingerprint}
	case cfgCapture:
		return &core.Config{Registry: p.Registry, Inject: true, Detect: true, Snapshot: core.SnapshotCapture}
	}
	return nil
}

// ladderRuns is how many timed runs each (app, rung) cell takes; the cell
// reports their median.
const ladderRuns = 15

// ladderResult holds, per rung, the sum over the workload's apps of the
// per-app median run time, and the per-app cells.
type ladderResult struct {
	sum   [numRungs]time.Duration
	table map[string]float64
}

// runLadder times the workload's apps on every rung, host-normalized by
// a reference measured first.
func runLadder(b *bench, names []string) (ladderResult, error) {
	res := ladderResult{table: make(map[string]float64)}
	ref := b.ref()
	for _, app := range appsByName(names) {
		p := app.Build()
		for rung := 0; rung < numRungs; rung++ {
			if err := b.ctx.Err(); err != nil {
				return res, err
			}
			d, err := timeRuns(p, rungConfig(rung, p), ladderRuns, 0)
			if err != nil {
				return res, err
			}
			d = norm(d, ref)
			res.sum[rung] += d
			res.table[fmt.Sprintf("ladder.%s.%s_us", app.Name, rungNames[rung])] = us(d)
		}
	}
	return res, nil
}

// timeRuns returns the median wall time of one p.Run() over at least n
// runs lasting at least minTotal, after one untimed warm-up run; each run
// executes under a fresh session built from cfg (nil: no session).
func timeRuns(p *inject.Program, cfg *core.Config, n int, minTotal time.Duration) (time.Duration, error) {
	times := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i <= n || time.Since(start) < minTotal; i++ {
		var s *core.Session
		if cfg != nil {
			s = core.NewSession(*cfg)
			if err := core.Install(s); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := guarded(p.Run)
		d := time.Since(t0)
		if s != nil {
			core.Uninstall(s)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.Name, err)
		}
		if i > 0 {
			times = append(times, float64(d))
		}
	}
	return time.Duration(median(times)), nil
}

// bareRuns returns, per app, the median wall time of one p.Run() with no
// session, timed for at least bareMin.
func bareRuns(list []apps.App) ([]time.Duration, error) {
	out := make([]time.Duration, len(list))
	for i, app := range list {
		d, err := timeRuns(app.Build(), nil, 21, bareMin)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// bareMin is long enough for a bare timing to span many runs of even the
// smallest app (a few microseconds each).
const bareMin = 5 * time.Millisecond

// guarded runs fn and reports a panic escaping it as an error. The
// bundled workloads handle their organic failures themselves, so with no
// fault injected nothing should escape.
func guarded(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	fn()
	return nil
}
