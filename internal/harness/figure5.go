package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"failatomic/internal/checkpoint"
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mBenchTargetWork         = core.Method("BenchTarget.Work")
	mBenchTargetWorkMasked   = core.Method("BenchTarget.WorkMasked")
	mBenchTargetWorkThrowing = core.Method("BenchTarget.WorkThrowing")
)

// errBadConfig reports a sweep configuration without positive Calls/Runs.
var errBadConfig = errors.New("harness: Calls and Runs must be positive")

// Payload is the checkpointed state of the Figure 5 synthetic benchmark;
// its size is the figure's first axis.
type Payload struct {
	Data []byte
	Meta [8]uint64
}

// BenchTarget is the synthetic component whose methods the sweep calls.
// Work and WorkMasked perform identical ~0.5 µs computations; only
// WorkMasked is wrapped by the masking session.
type BenchTarget struct {
	P    *Payload
	Sink uint64
}

// NewBenchTarget returns a target whose payload occupies objectBytes.
func NewBenchTarget(objectBytes int) *BenchTarget {
	data := make([]byte, objectBytes)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return &BenchTarget{P: &Payload{Data: data}}
}

// workIters calibrates the per-method processing time to the paper's
// ~0.5 µs baseline on a 2000s-era machine; on modern hardware the loop
// lands in the same order of magnitude.
const workIters = 220

// Work is the unwrapped method of the original program.
func (t *BenchTarget) Work() {
	defer mBenchTargetWork.Enter(t)()
	t.compute()
}

// WorkMasked is the method the masking phase wrapped (an atomicity
// wrapper checkpoints the receiver on entry, Listing 2).
func (t *BenchTarget) WorkMasked() {
	defer mBenchTargetWorkMasked.Enter(t)()
	t.compute()
}

// WorkThrowing performs the computation and then throws; it exercises the
// rollback path of the atomicity wrapper.
func (t *BenchTarget) WorkThrowing() {
	defer mBenchTargetWorkThrowing.Enter(t)()
	t.compute()
	t.P.Meta[0]++
	fault.Throw(fault.IllegalState, "BenchTarget.WorkThrowing", "synthetic failure")
}

func (t *BenchTarget) compute() {
	x := t.Sink ^ 0x9e3779b97f4a7c15
	for i := 0; i < workIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	t.Sink = x
}

// OverheadPoint is one cell of Figure 5.
type OverheadPoint struct {
	// ObjectBytes is the checkpointed object size axis.
	ObjectBytes int
	// MaskedPct is the percentage-of-masked-calls axis.
	MaskedPct float64
	// BaseNs is the per-call time with 0% masked calls.
	BaseNs float64
	// MaskedNs is the per-call time at MaskedPct.
	MaskedNs float64
	// Overhead is MaskedNs / BaseNs.
	Overhead float64
	// CheckpointBytes is the measured checkpoint payload size.
	CheckpointBytes int
}

// Figure5Config parameterizes the sweep.
type Figure5Config struct {
	// Sizes are the checkpointed object sizes in bytes.
	Sizes []int
	// FracsPct are the percentages of calls that go to the masked method.
	FracsPct []float64
	// Calls is the number of method calls per measured run.
	Calls int
	// Runs is the number of runs whose median is reported (paper: 40).
	Runs int
}

// DefaultFigure5Config mirrors the paper's axes at a size that finishes
// quickly; cmd/fabench raises Runs to the paper's 40.
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{
		Sizes:    []int{64, 1 << 10, 4 << 10, 16 << 10, 64 << 10},
		FracsPct: []float64{0, 0.1, 1, 10, 100},
		Calls:    2000,
		Runs:     9,
	}
}

// Figure5 runs the masking overhead sweep: per-method processing time as
// a function of checkpointed object size and percentage of masked calls.
// Each point is the median of cfg.Runs runs (§6.2). The context cancels
// the sweep between size rows.
func Figure5(ctx context.Context, cfg Figure5Config) ([]OverheadPoint, error) {
	return runSweep(ctx, cfg, sweep{
		masked: "BenchTarget.WorkMasked",
		target: func(objectBytes int) (sweepTarget, int, error) {
			target := NewBenchTarget(objectBytes)
			cp, err := checkpoint.Capture(target)
			if err != nil {
				return nil, 0, err
			}
			return target, cp.Bytes(), nil
		},
	})
}

// sweepTarget is the pair of methods a Figure 5 sweep calls.
type sweepTarget interface {
	Work()
	WorkMasked()
}

// sweep is what distinguishes one Figure 5 sweep from another: the
// masked method and a constructor returning a target and its checkpoint
// payload size.
type sweep struct {
	masked string
	target func(objectBytes int) (sweepTarget, int, error)
}

// runSweep measures every (size, fraction) cell in order on one
// goroutine: the 0%-masked baseline of a size row first, then every
// masked fraction against it. Timing cells never run concurrently, so
// they never measure contention with each other.
func runSweep(ctx context.Context, cfg Figure5Config, s sweep) ([]OverheadPoint, error) {
	if cfg.Calls <= 0 || cfg.Runs <= 0 {
		return nil, errBadConfig
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var points []OverheadPoint
	for _, size := range cfg.Sizes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("harness: sweep interrupted: %w", err)
		}
		base, cpBytes, err := s.measure(size, cfg, 0)
		if err != nil {
			return nil, err
		}
		for _, frac := range cfg.FracsPct {
			ns := base
			if frac > 0 {
				if ns, _, err = s.measure(size, cfg, frac); err != nil {
					return nil, err
				}
			}
			points = append(points, OverheadPoint{
				ObjectBytes:     size,
				MaskedPct:       frac,
				BaseNs:          base,
				MaskedNs:        ns,
				Overhead:        ns / base,
				CheckpointBytes: cpBytes,
			})
		}
	}
	return points, nil
}

// measure times one (size, fraction) cell on a freshly installed masking
// session and returns the median per-call nanoseconds plus the
// checkpoint payload size.
func (s sweep) measure(objectBytes int, cfg Figure5Config, fracPct float64) (float64, int, error) {
	session := core.NewSession(core.Config{
		Mask:        true,
		MaskMethods: map[string]bool{s.masked: true},
	})
	if err := core.Install(session); err != nil {
		return 0, 0, err
	}
	defer core.Uninstall(session)

	target, cpBytes, err := s.target(objectBytes)
	if err != nil {
		return 0, 0, err
	}
	masked := int(float64(cfg.Calls) * fracPct / 100)
	step := 0
	if masked > 0 {
		step = cfg.Calls / masked
	}

	times := make([]float64, 0, cfg.Runs)
	for run := 0; run < cfg.Runs; run++ {
		start := time.Now()
		for i := 0; i < cfg.Calls; i++ {
			if step > 0 && i%step == 0 {
				target.WorkMasked()
			} else {
				target.Work()
			}
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/float64(cfg.Calls))
	}
	return median(times), cpBytes, nil
}

func median(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// RenderFigure5 prints the sweep as an overhead matrix (object size ×
// masked-call percentage), the paper's Figure 5 surface.
func RenderFigure5(points []OverheadPoint) string {
	sizes, fracs := axes(points)
	grid := make(map[[2]float64]OverheadPoint, len(points))
	for _, p := range points {
		grid[[2]float64{float64(p.ObjectBytes), p.MaskedPct}] = p
	}
	var b strings.Builder
	b.WriteString("Figure 5: masking overhead (time per call / unmasked time per call)\n")
	fmt.Fprintf(&b, "%-12s", "object size")
	for _, f := range fracs {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("%g%%", f))
	}
	b.WriteString("\n")
	for _, s := range sizes {
		fmt.Fprintf(&b, "%-12s", byteSize(s))
		for _, f := range fracs {
			p := grid[[2]float64{float64(s), f}]
			fmt.Fprintf(&b, " %9.2f", p.Overhead)
		}
		b.WriteString("\n")
	}
	if len(points) > 0 {
		fmt.Fprintf(&b, "baseline per-call time: %.0f ns (paper testbed: ~500 ns)\n", points[0].BaseNs)
	}
	return b.String()
}

func axes(points []OverheadPoint) ([]int, []float64) {
	sizeSet := make(map[int]bool)
	fracSet := make(map[float64]bool)
	for _, p := range points {
		sizeSet[p.ObjectBytes] = true
		fracSet[p.MaskedPct] = true
	}
	sizes := make([]int, 0, len(sizeSet))
	for s := range sizeSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	fracs := make([]float64, 0, len(fracSet))
	for f := range fracSet {
		fracs = append(fracs, f)
	}
	sort.Float64s(fracs)
	return sizes, fracs
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
