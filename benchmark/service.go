package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"failatomic/internal/serve"
	"failatomic/internal/serve/client"
)

// serviceSpec is one job of the service mix.
type serviceSpec struct {
	key  string
	spec serve.JobSpec
}

// serviceSpecs is the fixed job mix: seven small detect campaigns and one
// concurrent schedule campaign.
var serviceSpecs = []serviceSpec{
	{"detect/LinkedList", serve.JobSpec{App: "LinkedList"}},
	{"detect/HashedSet", serve.JobSpec{App: "HashedSet"}},
	{"detect/adaptorChain", serve.JobSpec{App: "adaptorChain"}},
	{"detect/stdQ", serve.JobSpec{App: "stdQ"}},
	{"detect/xml2Ctcp", serve.JobSpec{App: "xml2Ctcp"}},
	{"detect/Dynarray", serve.JobSpec{App: "Dynarray"}},
	{"detect/LinkedBuffer", serve.JobSpec{App: "LinkedBuffer"}},
	{"concur/LinkedList", serve.JobSpec{App: "LinkedList", Kind: serve.KindConcur, Workers: 4, Schedules: 64}},
}

func serviceApps() []string {
	var names []string
	for _, s := range serviceSpecs {
		if s.spec.JobKind() == serve.KindDetect {
			names = append(names, s.spec.App)
		}
	}
	return names
}

const (
	// The two fixed arrival rates, each for half the measured time: about
	// 20 % and 40 % of what two workers complete on two uncontended cores.
	// Shared hosts run up to twice slower for minutes at a time, and at
	// 30/s such a stretch outgrows the queue.
	rateLow  = 10.0
	rateHigh = 20.0
	// latencyLimit is the latency a job must meet to count as goodput.
	latencyLimit = 250 * time.Millisecond
	// serviceQueue lets a short host stall queue jobs instead of refusing
	// them; faserve's default is 16.
	serviceQueue = 64
	pollEvery    = 100 * time.Millisecond
)

// serviceEnv is one in-process faserve behind a loopback listener.
type serviceEnv struct {
	dir string
	srv *serve.Server
	ts  *httptest.Server
	c   *client.Client
}

// startService boots a server on a fresh data directory and passes every
// spec of the mix through it once.
func startService(b *bench) (*serviceEnv, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("faserve-%d", len(b.setupS)))
	srv, err := serve.New(serve.Config{DataDir: dir, Workers: 2, QueueDepth: serviceQueue})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	e := &serviceEnv{dir: dir, srv: srv, ts: ts, c: client.New(ts.URL)}
	for _, s := range serviceSpecs {
		id, err := e.c.Submit(b.ctx, s.spec)
		if err != nil {
			e.close()
			return nil, err
		}
		st, err := e.wait(b.ctx, id)
		if err == nil {
			err = e.fetch(b, s.key, id, st)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %w", s.key, err)
		}
	}
	return e, nil
}

func (e *serviceEnv) close() {
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Drain(ctx)
	os.RemoveAll(e.dir)
}

// wait polls a job's status until it is terminal.
func (e *serviceEnv) wait(ctx context.Context, id string) (serve.JobStatus, error) {
	for {
		st, err := e.c.Status(ctx, id)
		if err != nil || st.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// fetch retrieves a finished job's stored report and log and checks them
// against the committed digests.
func (e *serviceEnv) fetch(b *bench, key, id string, st serve.JobStatus) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	report, err := e.c.Report(b.ctx, id)
	var log []byte
	if err == nil {
		log, err = e.c.Log(b.ctx, id)
	}
	if err != nil {
		return err
	}
	if err := b.check("job/"+key+"/report", sha(report)); err != nil {
		return err
	}
	return b.check("job/"+key+"/log", sha(log))
}

// metrics reads the server's /metrics counters.
func (e *serviceEnv) metrics(ctx context.Context) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	m := make(map[string]int64)
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// arrival is one scheduled job submission.
type arrival struct {
	at    time.Duration
	spec  int
	phase int
}

// schedule draws Poisson arrivals at rateLow for the first half of the
// measured time and rateHigh for the second. Each phase holds exactly
// rate × half arrivals at sorted uniform times — a Poisson process
// conditioned on its count — so the seed moves the arrivals but not the
// load. The mix cycles through a fresh seeded permutation of the specs
// every len(serviceSpecs) jobs.
func (b *bench) schedule() []arrival {
	half := b.cfg.seconds / 2
	var out []arrival
	var perm []int
	for phase, rate := range []float64{rateLow, rateHigh} {
		at := make([]float64, int(math.Round(rate*half)))
		for i := range at {
			at[i] = half * (float64(phase) + b.rng.Float64())
		}
		sort.Float64s(at)
		for _, t := range at {
			if len(perm) == 0 {
				perm = b.rng.Perm(len(serviceSpecs))
			}
			out = append(out, arrival{at: time.Duration(t * float64(time.Second)), spec: perm[0], phase: phase})
			perm = perm[1:]
		}
	}
	return out
}

// submitted is a job the generator submitted.
type submitted struct {
	arrival
	id                 string
	due                time.Time
	submitted, ackedAt time.Time
	traced             bool
}

// collected is what the collector goroutine observed.
type collected struct {
	samples    []sample
	failures   []string
	depth      [2][]float64         // polled queue depth, per phase
	latByPhase [2][]float64         // job latency in ms, per phase
	latBy      map[string][]float64 // job latency in ms, per kind and per spec
	pollMs     []float64
	lastDone   time.Time // the latest completion stamp
}

// runService submits the seeded arrival schedule from one goroutine while
// a collector polls job states and /metrics, fetches every finished job's
// report and log, and checks them.
func runService(b *bench) error {
	env, err := setUp(b, func() (*serviceEnv, error) { return startService(b) }, (*serviceEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	// Bare timings would compete with the server for the CPUs, so they are
	// taken before the schedule. So is the host reference, which is
	// recorded but not applied: latency is reported as measured. A reference
	// taken around the schedule tracked its latency worse than no
	// correction at all (the jobs spread over both CPUs, the reference runs
	// on one), and one taken during it measures the server's load instead.
	detectApps := appsByName(serviceApps())
	bareTimes, err := bareRuns(detectApps)
	if err != nil {
		return err
	}
	bare := make(map[string]time.Duration)
	for i, app := range detectApps {
		bare["detect/"+app.Name] = bareTimes[i]
	}
	b.ref()
	m0, err := env.metrics(b.ctx)
	if err != nil {
		return err
	}

	arrivals := b.schedule()
	col := collected{latBy: make(map[string][]float64)}
	var start time.Time
	cpu := cpuTime()
	err = b.measure(func() error {
		jobs := make(chan submitted, len(arrivals)) // one slot per send: the generator never waits on the collector
		var wg sync.WaitGroup
		start = time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			env.collect(b, start, bare, jobs, &col)
		}()
		b.generate(env, start, arrivals, jobs)
		close(jobs)
		wg.Wait()
		return b.ctx.Err()
	})
	if err != nil {
		return err
	}
	cpu = cpuTime() - cpu
	// Throughput counts until the last job completed, so a backlog left at
	// the end of the schedule lowers it.
	b.openWall = col.lastDone.Sub(start)
	for _, f := range col.failures {
		b.fail("%s", f)
	}

	m1, err := env.metrics(b.ctx)
	if err != nil {
		return err
	}
	if err := env.checkIndex(b, len(serviceSpecs)+len(col.samples)); err != nil {
		b.fail("%v", err)
	}
	for _, s := range col.samples {
		s.cpu = cpu / time.Duration(len(col.samples))
		b.samples = append(b.samples, s)
	}
	b.serviceLayers(m0, m1, &col)
	return nil
}

// generate submits each arrival when it is due, from this goroutine
// alone, and hands the accepted jobs to the collector.
func (b *bench) generate(env *serviceEnv, start time.Time, arrivals []arrival, jobs chan<- submitted) {
	for i, a := range arrivals {
		due := start.Add(a.at)
		select {
		case <-b.ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		b.late(due)
		b.attempted++
		sub := submitted{arrival: a, due: due, submitted: time.Now(), traced: b.tracerFor(0, i) != nil}
		id, err := env.c.Submit(b.ctx, serviceSpecs[a.spec].spec)
		sub.ackedAt = time.Now()
		if err != nil {
			b.fail("submit %s: %v", serviceSpecs[a.spec].key, err)
			continue
		}
		sub.id = id
		jobs <- sub
	}
}

// collect follows the submitted jobs until every one is terminal.
func (e *serviceEnv) collect(b *bench, start time.Time, bare map[string]time.Duration, jobs <-chan submitted, col *collected) {
	// A job the server never finishes must not hang the run.
	ctx, cancel := context.WithTimeout(b.ctx, time.Duration(b.cfg.seconds*float64(time.Second))+60*time.Second)
	defer cancel()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	var pending []submitted
	for jobs != nil || len(pending) > 0 {
		select {
		case sub, ok := <-jobs:
			if !ok {
				jobs = nil
			} else {
				pending = append(pending, sub)
			}
			continue
		case <-tick.C:
		case <-ctx.Done():
			col.failures = append(col.failures, fmt.Sprintf("%d jobs unfinished: %v", len(pending), ctx.Err()))
			return
		}
		t0 := time.Now()
		m, err := e.metrics(ctx)
		if err != nil {
			col.failures = append(col.failures, err.Error())
		} else {
			phase := 0
			if t0.Sub(start).Seconds() >= b.cfg.seconds/2 {
				phase = 1
			}
			col.depth[phase] = append(col.depth[phase], float64(m["queue_depth"]))
		}
		col.pollMs = append(col.pollMs, ms(time.Since(t0)))
		keep := pending[:0]
		for _, sub := range pending {
			st, err := e.c.Status(ctx, sub.id)
			switch {
			case err != nil:
				col.failures = append(col.failures, fmt.Sprintf("status %s: %v", sub.id, err))
			case !st.Terminal():
				keep = append(keep, sub)
			default:
				s, err := e.finish(b, sub, st, bare)
				if err != nil {
					col.failures = append(col.failures, err.Error())
					continue
				}
				col.samples = append(col.samples, s)
				if st.CompletedAt.After(col.lastDone) {
					col.lastDone = st.CompletedAt
				}
				col.latByPhase[sub.phase] = append(col.latByPhase[sub.phase], ms(s.dur))
				kind := serviceSpecs[sub.spec].spec.JobKind()
				col.latBy[kind] = append(col.latBy[kind], ms(s.dur))
				col.latBy[s.item] = append(col.latBy[s.item], ms(s.dur))
			}
		}
		pending = keep
	}
}

// finish checks one terminal job and turns it into a sample. Its latency
// runs from its scheduled arrival to the server's completion stamp; its
// bare time is its runs at the app's bare run time (none for concur jobs).
func (e *serviceEnv) finish(b *bench, sub submitted, st serve.JobStatus, bare map[string]time.Duration) (sample, error) {
	key := serviceSpecs[sub.spec].key
	var tr *tracer
	if sub.traced {
		tr = b.tr
	}
	fetchStart := time.Now()
	if err := e.fetch(b, key, sub.id, st); err != nil {
		return sample{}, fmt.Errorf("%s: %w", key, err)
	}
	// The traced interaction runs from the scheduled arrival until the
	// client holds the job's results.
	op := tr.add(0, sub.id, "bench.op", sub.due, time.Now())
	tr.add(op, sub.id, "serve.submit", sub.submitted, sub.ackedAt)
	tr.add(op, sub.id, "serve.fetch", fetchStart, time.Now())
	lat := st.CompletedAt.Sub(sub.due)
	return sample{item: key, dur: lat, bare: time.Duration(st.RunsDone) * bare[key],
		good: lat <= latencyLimit, traced: sub.traced}, nil
}

// checkIndex pages the job index and checks it lists every done job.
func (e *serviceEnv) checkIndex(b *bench, want int) error {
	q := serve.ListQuery{State: serve.StateDone, Limit: 500}
	got := 0
	for {
		page, err := e.c.List(b.ctx, q)
		if err != nil {
			return err
		}
		got += len(page.Jobs)
		if page.NextCursor == "" {
			break
		}
		q.Cursor = page.NextCursor
	}
	if got != want {
		return fmt.Errorf("job index lists %d done jobs, want %d", got, want)
	}
	return nil
}

// serviceLayers derives the service's per-layer counts from the /metrics
// deltas and the collector's samples.
func (b *bench) serviceLayers(m0, m1 map[string]int64, col *collected) {
	d := func(k string) float64 { return float64(m1[k] - m0[k]) }
	b.acc["ops"] = float64(len(col.samples))
	b.acc["runs"] = d("runs_executed_total")
	b.acc["cache_hits"] = d("snapshot_cache_hits_total")
	b.acc["cache_misses"] = d("snapshot_cache_misses_total")
	b.acc["cache_bytes"] = d("snapshot_cache_bytes")
	rates := [2]float64{rateLow, rateHigh}
	for phase, depths := range col.depth {
		b.acc["queue_depth_sum"] += sum(depths)
		b.acc["queue_depth_n"] += float64(len(depths))
		mean := safeDiv(sum(depths), float64(len(depths)))
		r := int(rates[phase])
		b.table[fmt.Sprintf("sched.queue_depth_mean_r%d", r)] = mean
		// Little's law: mean queue wait = mean queue depth / arrival rate.
		b.table[fmt.Sprintf("sched.queue_wait_ms_est_r%d", r)] = 1000 * mean / rates[phase]
	}
	for phase, lat := range col.latByPhase {
		r := int(rates[phase])
		b.table[fmt.Sprintf("serve.lat_ms_p50_r%d", r)] = quantile(lat, 0.5)
		b.table[fmt.Sprintf("serve.lat_ms_p90_r%d", r)] = quantile(lat, 0.9)
		b.table[fmt.Sprintf("serve.lat_ms_p99_r%d", r)] = quantile(lat, 0.99)
	}
	for key, lat := range col.latBy {
		b.table["serve.lat_ms_p50."+key] = median(lat)
	}
	b.table["serve.metrics_poll_ms_p50"] = median(col.pollMs)
}
