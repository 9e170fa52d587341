// Tests for the schedule campaign: the flip the subsystem exists to
// expose (single-threaded failure atomic, concurrently non-linearizable),
// replay determinism, resume splicing, and spec admission.
package concur_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"failatomic/internal/cli"
	"failatomic/internal/concur"
	"failatomic/internal/core"
	"failatomic/internal/detect"
	"failatomic/internal/fault"
	"failatomic/internal/inject"
	"failatomic/internal/replog"
)

func target(t *testing.T, name string) concur.Target {
	t.Helper()
	tgt, ok := concur.ByName(name)
	if !ok {
		t.Fatalf("concurrent target %q missing (have: %v)", name, concur.Names())
	}
	return tgt
}

// TestFlipAtomicSequentiallyNonLinearizableConcurrently pins the headline
// result: LockedList.InsertPair classifies failure atomic under the
// ordinary single-threaded campaign (every failure path compensates
// completely), yet under the default schedule campaign at least one
// faulted InsertPair schedule is non-linearizable — the fault's partial
// effect leaked through the compound-op window to another worker.
func TestFlipAtomicSequentiallyNonLinearizableConcurrently(t *testing.T) {
	tgt := target(t, "LinkedList")

	seq, err := inject.Campaign(context.Background(), tgt.Program(concur.DefaultWorkers), inject.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls := detect.Classify(seq, detect.Options{})
	rep := cls.Methods["LockedList.InsertPair"]
	if rep == nil {
		t.Fatalf("sequential campaign never called LockedList.InsertPair; methods: %v", cls.Names())
	}
	if rep.Classification != detect.ClassAtomic {
		t.Fatalf("sequential LockedList.InsertPair = %s, want failure atomic (the flip needs a clean single-threaded verdict)", rep.Classification)
	}

	res, err := concur.Campaign(context.Background(), &tgt, concur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := detect.SummarizeConcur(res.Inject)
	if sum.Clean != detect.ConcurAtomic.String() {
		t.Errorf("clean schedule verdict = %q, want atomic", sum.Clean)
	}
	if sum.NonLinearizable == 0 {
		t.Fatalf("no non-linearizable schedule in %d schedules; report:\n%s", sum.Schedules, res.Report)
	}
	if sum.MinFailingSched == 0 {
		t.Error("summary carries no minimal failing schedule id")
	}
	flipped := false
	for _, run := range detect.ConcurRuns(res.Inject) {
		oc := run.Concur
		if oc.FaultWorker < 0 {
			continue
		}
		if detect.ParseConcurVerdict(oc.Verdict) == detect.ConcurNonLinearizable &&
			strings.HasPrefix(oc.FaultOp, "InsertPair") {
			flipped = true
		}
	}
	if !flipped {
		t.Errorf("no non-linearizable schedule faulted InsertPair; report:\n%s", res.Report)
	}
	if !strings.Contains(res.Report, "no linearization of the sequential model explains this history") {
		t.Error("report lacks the minimal-failing-schedule callout")
	}
}

// TestRBMapMixesVerdicts: the locked map's PutFresh is honest
// committed-then-throw, so its faulted schedules include
// non-atomic-but-linearizable outcomes alongside atomic ones.
func TestRBMapMixesVerdicts(t *testing.T) {
	tgt := target(t, "RBMap")
	res, err := concur.Campaign(context.Background(), &tgt, concur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := detect.SummarizeConcur(res.Inject)
	if sum.Clean != detect.ConcurAtomic.String() {
		t.Errorf("clean schedule verdict = %q, want atomic", sum.Clean)
	}
	if sum.Atomic == 0 || sum.Linearizable == 0 {
		t.Errorf("verdict mix = %d atomic / %d linearizable / %d non-linearizable, want both atomic and non-atomic-but-linearizable schedules:\n%s",
			sum.Atomic, sum.Linearizable, sum.NonLinearizable, res.Report)
	}
}

// TestCampaignDeterministic: the same target, spec and seed produce
// byte-identical reports and byte-identical logs across executions — the
// property every downstream byte-identity guarantee (resume, serve,
// dispatch, CI goldens) rests on.
func TestCampaignDeterministic(t *testing.T) {
	tgt := target(t, "LinkedList")
	opts := concur.Options{Workers: 4, Schedules: 16, Seed: 1}
	a, err := concur.Campaign(context.Background(), &tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := concur.Campaign(context.Background(), &tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report != b.Report {
		t.Errorf("reports differ across identical campaigns:\n--- first\n%s\n--- second\n%s", a.Report, b.Report)
	}
	var la, lb bytes.Buffer
	if err := replog.Write(&la, a.Inject); err != nil {
		t.Fatal(err)
	}
	if err := replog.Write(&lb, b.Inject); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(la.Bytes(), lb.Bytes()) {
		t.Error("logs differ across identical campaigns")
	}
}

// logOf renders a campaign's log bytes.
func logOf(t *testing.T, res *concur.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := replog.Write(&b, res.Inject); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSharedKnobsByteIdentity: schedules run through the shared sweep, so
// a parallel or supervised campaign records the same report and log as a
// sequential unsupervised one.
func TestSharedKnobsByteIdentity(t *testing.T) {
	tgt := target(t, "LinkedList")
	ref, err := concur.Campaign(context.Background(), &tgt, concur.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]inject.Options{
		"parallel":   {Parallelism: 4},
		"supervised": {MaxRetries: 1, RunTimeout: 30 * time.Second},
	} {
		res, err := concur.Campaign(context.Background(), &tgt, concur.Options{Campaign: opts})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Report != ref.Report {
			t.Errorf("%s report differs:\n--- %s\n%s\n--- sequential\n%s", name, name, res.Report, ref.Report)
		}
		if !bytes.Equal(logOf(t, res), logOf(t, ref)) {
			t.Errorf("%s log differs from the sequential campaign's", name)
		}
	}
}

// stallTarget is a two-worker target whose worker 0 runs one Stall.Op
// that blocks until release is closed once the injected fault reaches it;
// worker 1's Noop has no injection points. Every schedule that faults
// worker 0 therefore hangs, and every other one completes.
func stallTarget(release <-chan struct{}) concur.Target {
	reg := core.NewRegistry().Method("Stall", "Op", fault.IllegalElement)
	return concur.Target{
		Name:     "Stall",
		Lang:     "java",
		Registry: reg,
		Scripts: func(n int) [][]concur.Op {
			scripts := make([][]concur.Op, n)
			scripts[0] = []concur.Op{{Name: "Op"}}
			for w := 1; w < n; w++ {
				scripts[w] = []concur.Op{{Name: "Noop"}}
			}
			return scripts
		},
		New: func() *concur.Instance {
			return &concur.Instance{
				SetGap: func(func()) {},
				Apply: func(op concur.Op) string {
					if op.Name == "Op" {
						func() {
							defer func() {
								if recover() != nil {
									<-release
								}
							}()
							defer core.Enter(nil, "Stall.Op")()
						}()
					}
					return "ok"
				},
				Final: func() string { return "" },
			}
		},
		Model: func() concur.Model { return stallModel{} },
	}
}

type stallModel struct{}

func (stallModel) Clone() concur.Model    { return stallModel{} }
func (stallModel) Apply(concur.Op) string { return "ok" }
func (stallModel) Final() string          { return "" }

// TestHungScheduleQuarantined: under RunTimeout the supervisor abandons
// the one schedule that blocks (seed 1 faults the stalling worker in
// schedule 2 of 3) and quarantines it as hung; the other schedules
// complete, and the report and exit code show the quarantine the way a
// detect campaign's do.
func TestHungScheduleQuarantined(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	tgt := stallTarget(release)
	res, err := concur.Campaign(context.Background(), &tgt, concur.Options{
		Workers: 2, Schedules: 3, Seed: 1,
		Campaign: inject.Options{RunTimeout: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	hung := 0
	var hungKey inject.RunKey
	for _, run := range res.Inject.Runs[1:] {
		wantHung := run.Arg == 0
		if (run.Status == inject.RunHung) != wantHung {
			t.Errorf("%s: status %s, want hung=%v", run.Key(), run.Status, wantHung)
		}
		if wantHung {
			hung++
			hungKey = run.Key()
		}
	}
	if hung != 1 {
		t.Fatalf("%d schedules fault the stalling worker, want 1", hung)
	}
	q := res.Inject.Quarantined
	if len(q) != 1 || q[0].Status != inject.RunHung {
		t.Fatalf("quarantined = %+v, want one hung schedule", q)
	}
	if q[0].Key() != hungKey || q[0].Sched == 0 {
		t.Errorf("quarantine names run %s (sched %d), want the hung schedule %s", q[0].Key(), q[0].Sched, hungKey)
	}
	report, code := cli.ConcurReport(res)
	if code != cli.ExitQuarantined {
		t.Errorf("exit code = %d, want %d", code, cli.ExitQuarantined)
	}
	if !strings.HasPrefix(report, "QUARANTINED (Stall): ") || !strings.HasSuffix(report, res.Report) {
		t.Errorf("report does not lead with the quarantine summary:\n%s", report)
	}
	if !strings.Contains(report, "  "+hungKey.String()+" ") {
		t.Errorf("quarantine summary does not name schedule %s:\n%s", hungKey, report)
	}
}

// TestSeedChangesPlan: a different seed draws a different schedule plan.
func TestSeedChangesPlan(t *testing.T) {
	tgt := target(t, "LinkedList")
	a, err := concur.Campaign(context.Background(), &tgt, concur.Options{Workers: 4, Schedules: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := concur.Campaign(context.Background(), &tgt, concur.Options{Workers: 4, Schedules: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report == b.Report {
		t.Error("seeds 1 and 2 produced identical reports; the seed is not reaching the plan")
	}
}

// TestResumeSpliceByteIdentity: replaying a campaign with half its runs
// pre-recorded in Completed splices them without re-execution — only the
// remainder is freshly notified — and the final report and log bytes are
// identical to the uninterrupted run.
func TestResumeSpliceByteIdentity(t *testing.T) {
	tgt := target(t, "LinkedList")
	opts := concur.Options{Workers: 4, Schedules: 16, Seed: 1}

	var runs []inject.Run
	full, err := concur.Campaign(context.Background(), &tgt, concur.Options{
		Workers: opts.Workers, Schedules: opts.Schedules, Seed: opts.Seed,
		Campaign: inject.Options{OnRun: func(r inject.Run) error { runs = append(runs, r); return nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != opts.Schedules+1 {
		t.Fatalf("full campaign notified %d runs, want %d (clean + schedules)", len(runs), opts.Schedules+1)
	}

	half := len(runs) / 2
	completed := make(map[inject.RunKey]inject.Run, half)
	for _, r := range runs[:half] {
		completed[r.Key()] = r
	}
	fresh := 0
	resumed, err := concur.Campaign(context.Background(), &tgt, concur.Options{
		Workers: opts.Workers, Schedules: opts.Schedules, Seed: opts.Seed,
		Campaign: inject.Options{
			Completed: completed,
			OnRun:     func(inject.Run) error { fresh++; return nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh != len(runs)-half {
		t.Errorf("resumed campaign notified %d fresh runs, want %d", fresh, len(runs)-half)
	}
	if resumed.Report != full.Report {
		t.Errorf("resumed report differs from uninterrupted report:\n--- resumed\n%s\n--- full\n%s", resumed.Report, full.Report)
	}
	var lf, lr bytes.Buffer
	if err := replog.Write(&lf, full.Inject); err != nil {
		t.Fatal(err)
	}
	if err := replog.Write(&lr, resumed.Inject); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lf.Bytes(), lr.Bytes()) {
		t.Error("resumed log bytes differ from the uninterrupted campaign's")
	}
}

// TestCampaignRejectsForeignJournalRuns: a Completed run outside this
// campaign's schedule plan (changed flags, wrong subject) fails the
// campaign instead of silently polluting it.
func TestCampaignRejectsForeignJournalRuns(t *testing.T) {
	tgt := target(t, "LinkedList")
	bogus := inject.RunKey{Strategy: inject.ConcurStrategy, Point: 999, Arg: 0, Sched: 1}
	_, err := concur.Campaign(context.Background(), &tgt, concur.Options{
		Workers: 4, Schedules: 16, Seed: 1,
		Campaign: inject.Options{
			Completed: map[inject.RunKey]inject.Run{bogus: {InjectionPoint: 999, Strategy: inject.ConcurStrategy, Sched: 1}},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "schedule plan") {
		t.Errorf("foreign journal run: err = %v, want schedule-plan rejection", err)
	}
}

// TestParseSpec covers the -concur grammar and the admission bounds
// shared with faserve and faworker.
func TestParseSpec(t *testing.T) {
	good := []struct {
		in              string
		workers, scheds int
	}{
		{"", concur.DefaultWorkers, concur.DefaultSchedules},
		{"workers=8", 8, concur.DefaultSchedules},
		{"sched=16", concur.DefaultWorkers, 16},
		{"workers=2,sched=1", 2, 1},
		{" workers=4 , sched=64 ", 4, 64},
	}
	for _, tc := range good {
		sp, err := concur.ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if sp.Workers != tc.workers || sp.Schedules != tc.scheds {
			t.Errorf("ParseSpec(%q) = %+v, want workers=%d sched=%d", tc.in, sp, tc.workers, tc.scheds)
		}
	}
	bad := []string{"workers", "workers=x", "warp=1", "workers=1", "workers=17", "sched=0", "sched=4097"}
	for _, in := range bad {
		if _, err := concur.ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want rejection", in)
		}
	}
}

// TestEffectiveSeed: the zero seed maps to the default so "seed 0" never
// collides with the seedless journals of single-threaded campaigns.
func TestEffectiveSeed(t *testing.T) {
	if got := concur.EffectiveSeed(0); got != concur.DefaultSeed {
		t.Errorf("EffectiveSeed(0) = %d, want %d", got, concur.DefaultSeed)
	}
	if got := concur.EffectiveSeed(42); got != 42 {
		t.Errorf("EffectiveSeed(42) = %d, want 42", got)
	}
}
