package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md say why each was chosen.
type workload struct {
	name string
	// ladder names the apps the traced run times under each session
	// configuration after the workload (see ladder.go).
	ladder []string
	run    func(b *bench) error
}

func workloads() []workload {
	return []workload{
		{name: "campaign-heavy", ladder: heavyApps, run: runCampaignHeavy},
		{name: "eval-suite", ladder: allAppNames(), run: runEvalSuite},
		{name: "masked-run", ladder: maskedApps, run: runMaskedRun},
		{name: "service", ladder: serviceApps(), run: runService},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sample is one completed operation: a campaign, an evaluation, a masked
// batch or a job.
type sample struct {
	item string
	// dur is the operation's wall time (for a job: completion minus its
	// scheduled arrival).
	dur time.Duration
	// ref is the host reference's time measured next to the operation.
	ref time.Duration
	// cpu is the process CPU time the operation took (for a job, an equal
	// share of the schedule's).
	cpu time.Duration
	// bare is the wall time of the same program executions without any
	// session, measured in this process; 0 when not comparable.
	bare time.Duration
	// good reports whether a job met the latency limit; only the open
	// loop's goodput reads it.
	good   bool
	traced bool
}

// bench is the state of one workload run.
type bench struct {
	ctx  context.Context
	cfg  config
	want map[string]string // expected digests; nil while regenerating
	got  map[string]string // digests observed (recorded while regenerating)
	rng  *rand.Rand
	dir  string
	out  io.Writer

	tr *tracer // nil unless cfg.trace

	samples   []sample
	attempted int
	failures  []string
	setupS    []float64
	// refs are every host reference time measured in the run.
	refs []time.Duration
	// alloc is the heap allocated during the measured phase.
	alloc   uint64
	lateMax time.Duration
	// prevEnd is when a closed loop's previous operation ended.
	prevEnd time.Time
	// openWall is an open loop's wall clock from the first scheduled
	// arrival to the last completion; zero for a closed loop.
	openWall time.Duration
	// acc accumulates per-layer counts from traced operations.
	acc map[string]float64
	// table holds the trace-only per-layer details.
	table map[string]float64
}

func newBench(ctx context.Context, cfg config, want map[string]string, out io.Writer) (*bench, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		ctx: ctx, cfg: cfg, want: want, got: make(map[string]string),
		rng: rand.New(rand.NewSource(cfg.seed)), dir: dir, out: out,
		acc: make(map[string]float64), table: make(map[string]float64),
	}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b, nil
}

// fail records one failed operation.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintln(b.out, "FAILED:", msg)
}

// check compares an output digest with the committed one, recording it
// either way; while regenerating, every digest is accepted.
func (b *bench) check(key, digest string) error {
	b.got[key] = digest
	if b.want == nil {
		return nil
	}
	want, ok := b.want[key]
	if !ok {
		return fmt.Errorf("%s: no expected digest (rerun -regen-expected)", key)
	}
	if want != digest {
		return fmt.Errorf("%s: output digest %.12s, want %.12s", key, digest, want)
	}
	return nil
}

// late records how long after it was due an operation started: for the
// service, its scheduled arrival; for a closed loop, the end of the
// previous operation (so it is the benchmark's own work in between).
func (b *bench) late(due time.Time) {
	if d := time.Since(due); !due.IsZero() && d > b.lateMax {
		b.lateMax = d
	}
}

// tracerFor returns the tracer for operation j of cycle k: in a traced
// run, alternate operations are traced, and the pattern flips every cycle
// so each item is measured both ways.
func (b *bench) tracerFor(k, j int) *tracer {
	if b.tr != nil && (j+k)%2 == 0 {
		return b.tr
	}
	return nil
}

// ref measures the host's speed now, as the mean time of a few reference
// slices.
func (b *bench) ref() time.Duration {
	return b.noteRef(newProber(20).ref())
}

// noteRef records a reference measurement for the run's median.
func (b *bench) noteRef(r time.Duration) time.Duration {
	b.refs = append(b.refs, r)
	return r
}

// refRun is the median host reference time of the run.
func (b *bench) refRun() time.Duration {
	var v []float64
	for _, r := range b.refs {
		v = append(v, float64(r))
	}
	return time.Duration(median(v))
}

// setUp builds a workload's state cfg.setups times, timing each build
// next to a host reference, and keeps the last one; earlier ones are torn
// down untimed.
func setUp[T any](b *bench, build func() (T, error), teardown func(T)) (T, error) {
	var state T
	for i := 0; i < b.cfg.setups; i++ {
		ref := b.ref()
		start := time.Now()
		s, err := build()
		b.setupS = append(b.setupS, norm(time.Since(start), ref).Seconds())
		if err != nil {
			return state, fmt.Errorf("set-up: %w", err)
		}
		if i < b.cfg.setups-1 {
			teardown(s)
		} else {
			state = s
		}
	}
	return state, nil
}

// measure runs a workload's measured phase, counting the heap it
// allocates.
func (b *bench) measure(phase func() error) error {
	alloc0 := totalAlloc()
	err := phase()
	b.alloc = totalAlloc() - alloc0
	return err
}

// closedLoop runs whole cycles until the measured seconds have passed,
// at least one.
func (b *bench) closedLoop(cycle func(k int) error) error {
	limit := time.Duration(b.cfg.seconds * float64(time.Second))
	return b.measure(func() error {
		start := time.Now()
		for k := 0; k == 0 || time.Since(start) < limit; k++ {
			if err := b.ctx.Err(); err != nil {
				return err
			}
			if err := cycle(k); err != nil {
				return err
			}
		}
		return nil
	})
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	// digests are the output digests the run observed.
	digests map[string]string
}

// output is the object printed as the last line of a run: the end-to-end
// metrics, or the per-layer ones in a traced run.
func (r *result) output(traced bool) any {
	m := r.EndToEnd
	if traced {
		m = r.PerLayer
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, m}
}

// runWorkload runs one workload in this process and computes its metrics.
func runWorkload(ctx context.Context, w workload, cfg config, want map[string]string, out io.Writer) (*result, error) {
	cfg.workload = w.name
	b, err := newBench(ctx, cfg, want, out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{
		Workload:  w.name,
		Attempted: b.attempted,
		Failed:    len(b.failures),
		EndToEnd:  b.endToEnd(),
		digests:   b.got,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if cfg.trace {
		ladder, err := runLadder(b, w.ladder)
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", w.name, err)
		}
		res.PerLayer = b.perLayer(ladder)
		if err := b.writeTrace(res); err != nil {
			return nil, err
		}
	}
	b.print(res)
	return res, nil
}

// endToEnd computes the metrics a user of the system sees. Only metrics
// whose run-to-run spread on a shared host stays a few percent are here;
// latency percentiles, CPU time and the overhead over bare runs are
// per-layer metrics (see README.md).
func (b *bench) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":         {median(b.setupS), "s"},
		"ops_per_s":       {b.opsPerS(), "1/s"},
		"alloc_mb_per_op": {safeDiv(float64(b.alloc), float64(len(b.samples))) / (1 << 20), "MiB"},
	}
}

// opsPerS is an open loop's goodput over its schedule, or a closed loop's
// throughput at each item's median host-normalized operation time, so one
// operation stalled by a collection or a host hiccup does not move it.
func (b *bench) opsPerS() float64 {
	if b.openWall > 0 {
		good := 0
		for _, s := range b.samples {
			if s.good {
				good++
			}
		}
		return safeDiv(float64(good), b.openWall.Seconds())
	}
	var ops, busy float64
	for _, d := range b.itemDurations() {
		ops += float64(len(d))
		busy += float64(len(d)) * median(d) / 1000
	}
	return safeDiv(ops, busy)
}

// itemDurations groups the untraced operations' host-normalized times, in
// ms, by item. Items (apps, specs) differ in cost by up to two orders of
// magnitude, so percentiles are taken per item and combined by geometric
// mean; a pooled percentile would fall between items.
func (b *bench) itemDurations() map[string][]float64 {
	durs := make(map[string][]float64)
	for _, s := range b.samples {
		if !s.traced {
			durs[s.item] = append(durs[s.item], ms(norm(s.dur, s.ref)))
		}
	}
	return durs
}

// itemQuantile is the geometric mean over items of each item's q-quantile.
func itemQuantile(byItem map[string][]float64, q float64) float64 {
	var qs []float64
	for _, v := range byItem {
		qs = append(qs, quantile(v, q))
	}
	return geomean(qs)
}

// traceOverheadPct compares, item by item, the traced operations with the
// untraced ones of the same run.
func (b *bench) traceOverheadPct() float64 {
	traced := make(map[string][]float64)
	plain := make(map[string][]float64)
	for _, s := range b.samples {
		d := float64(norm(s.dur, s.ref))
		if s.traced {
			traced[s.item] = append(traced[s.item], d)
		} else {
			plain[s.item] = append(plain[s.item], d)
		}
	}
	var ratios []float64
	for item, t := range traced {
		if p := plain[item]; len(p) > 0 {
			ratios = append(ratios, median(t)/median(p))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return 100 * (geomean(ratios) - 1)
}

// perLayer computes the traced run's per-layer metrics.
func (b *bench) perLayer(l ladderResult) map[string]metric {
	spans := b.tr.finish()
	shares := layerShares(spans)
	durs := b.itemDurations()
	ratios := make(map[string][]float64)
	var cpu []float64
	for _, s := range b.samples {
		if !s.traced {
			cpu = append(cpu, ms(norm(s.cpu, s.ref)))
			if s.bare > 0 {
				ratios[s.item] = append(ratios[s.item], float64(s.dur)/float64(s.bare))
			}
		}
	}
	_, rss := usage()
	a := b.acc
	m := map[string]metric{
		"bench.op_ms_p50":                 {itemQuantile(durs, 0.5), "ms"},
		"bench.op_ms_p90":                 {itemQuantile(durs, 0.9), "ms"},
		"bench.cpu_ms_per_op":             {safeDiv(sum(cpu), float64(len(cpu))), "ms"},
		"apps.overhead_x":                 {itemQuantile(ratios, 0.5), "ratio"},
		"apps.bare_run_us":                {us(l.sum[cfgBare]), "us"},
		"core.count_run_us":               {us(l.sum[cfgCount]), "us"},
		"core.mask_base_run_us":           {us(l.sum[cfgMaskBase]), "us"},
		"objgraph.fingerprint_run_us":     {us(l.sum[cfgFingerprint]), "us"},
		"objgraph.capture_run_us":         {us(l.sum[cfgCapture]), "us"},
		"core.mask_base_x":                {safeDiv(float64(l.sum[cfgMaskBase]), float64(l.sum[cfgBare])), "ratio"},
		"bench.host_calib_ns":             {float64(b.refRun()), "ns"},
		"bench.peak_rss_mb":               {float64(rss) / (1 << 20), "MiB"},
		"bench.generator_late_ms_max":     {ms(b.lateMax), "ms"},
		"bench.op_ms_p99":                 {itemQuantile(durs, 0.99), "ms"},
		"bench.trace_overhead_pct":        {b.traceOverheadPct(), "%"},
		"inject.runs_per_op":              {safeDiv(a["runs"], a["ops"]), "count"},
		"inject.replay_frac":              {safeDiv(a["replay_runs"], a["runs"]), "fraction"},
		"objgraph.cache_hit_frac":         {safeDiv(a["cache_hits"], a["cache_hits"]+a["cache_misses"]), "fraction"},
		"objgraph.cache_bytes_per_op":     {safeDiv(a["cache_bytes"], a["ops"]), "bytes"},
		"mask.wrap_methods":               {safeDiv(a["wrap_methods"], a["wrap_plans"]), "count"},
		"checkpoint.masked_calls_per_run": {safeDiv(a["masked_calls"], a["masked_runs"]), "count"},
		"checkpoint.bytes_per_call":       {safeDiv(a["mask_bytes"], a["masked_calls"]), "bytes"},
		"sched.queue_depth_mean":          {safeDiv(a["queue_depth_sum"], a["queue_depth_n"]), "count"},
	}
	for _, layer := range shareLayers {
		m[layer+".self_pct"] = metric{shares[layer], "%"}
	}
	for k, v := range spanTable(spans) {
		b.table[k] = v
	}
	for k, v := range l.table {
		b.table[k] = v
	}
	for item, r := range ratios {
		b.table["apps.overhead_x."+item] = median(r)
	}
	return m
}

// shareLayers are the layers whose self-time share the traced run reports.
var shareLayers = []string{"bench", "apps", "core", "inject", "detect", "replog", "cli", "harness", "repair", "serve"}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// print writes the human-readable summary: every metric by name with its
// unit and, in a traced run, the per-layer table.
func (b *bench) print(res *result) {
	fmt.Fprintf(b.out, "%s: %d operations attempted, %d failed, %d samples, seed %d\n",
		res.Workload, res.Attempted, res.Failed, len(b.samples), b.cfg.seed)
	printMetrics(b.out, "end-to-end", res.EndToEnd)
	if res.PerLayer != nil {
		printMetrics(b.out, "per-layer", res.PerLayer)
		var keys []string
		for k := range b.table {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b.out, "  trace %-48s %14.3f\n", k, b.table[k])
		}
	}
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-10s %-34s %14.4f %s\n", title, k, m[k].Value, m[k].Unit)
	}
}

// writeTrace writes the spans and the per-layer table of a traced run.
func (b *bench) writeTrace(res *result) error {
	if b.cfg.traceOut == "" {
		return nil
	}
	if err := os.MkdirAll(b.cfg.traceOut, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		PerLayer map[string]metric  `json:"per_layer"`
		Table    map[string]float64 `json:"table"`
	}{res.Workload, b.cfg.seed, b.tr.finish(), res.PerLayer, b.table})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.cfg.traceOut, res.Workload+".trace.json"), data, 0o644)
}

// runAll runs every workload in a child process of its own, so set-up
// time and peak memory are per workload, and prints one combined object.
func runAll(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	all := make(map[string]json.RawMessage)
	code := 0
	for _, w := range workloads() {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-work", cfg.work}
		if cfg.trace {
			args = append(args, "-trace", "1", "-trace-out", cfg.traceOut)
		}
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		last := lastLine(buf.Bytes())
		if !json.Valid(last) {
			fmt.Fprintf(stderr, "benchmark: %s printed no result\n", w.name)
			code = 1
			continue
		}
		all[w.name] = json.RawMessage(last)
	}
	if err := emit(all, cfg.jsonOut, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	return out[bytes.LastIndexByte(out, '\n')+1:]
}
