// Perturbation models: pluggable fault strategies over the injection
// grid. The paper's detector knows one experiment — inject one exception
// at the first activation of one point — which misses non-atomicity that
// only shows up under richer fault shapes (TripleAgent's perturbation
// agents, the failure-oblivious computing literature). A Perturbation
// plans extra experiments from the clean run's profile; each experiment
// is one injector execution with its own session configuration, and its
// identity — the RunKey — carries a strategy coordinate so journaling,
// resume, chunk shipping and the drift gate all compose per-strategy
// without a format fork (default-strategy keys serialize exactly as
// before, so legacy journals decode unchanged).
package inject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// RunKey identifies one experiment within a campaign: the perturbation
// strategy ("" is the default first-activation model), the primary
// injection-point coordinate, a strategy-specific argument (the N of
// nth-activation, the second point of a burst pair, the call ordinal of a
// deferred-cleanup fault; 0 when unused), and — for concurrent campaigns —
// the schedule identifier (0 for every single-threaded run, which is what
// keeps legacy keys and their serializations unchanged). The zero RunKey
// is the clean run.
type RunKey struct {
	Strategy string
	Point    int
	Arg      int
	Sched    int
}

// Less orders keys deterministically: strategy, then point, then arg,
// then schedule. The default strategy ("") sorts first, so an all-default
// key set orders purely by point — what keeps legacy chunk encodings
// byte-identical.
func (k RunKey) Less(o RunKey) bool {
	if k.Strategy != o.Strategy {
		return k.Strategy < o.Strategy
	}
	if k.Point != o.Point {
		return k.Point < o.Point
	}
	if k.Arg != o.Arg {
		return k.Arg < o.Arg
	}
	return k.Sched < o.Sched
}

// String renders the key for reports and errors. Default-strategy keys
// print as the historical "point N", keeping error and warning text of
// perturbation-free campaigns unchanged; schedule-bearing keys append
// their schedule coordinate.
func (k RunKey) String() string {
	if k.Strategy == "" {
		return fmt.Sprintf("point %d", k.Point)
	}
	if k.Sched != 0 {
		return fmt.Sprintf("%s[%d,%d]#%d", k.Strategy, k.Point, k.Arg, k.Sched)
	}
	return fmt.Sprintf("%s[%d,%d]", k.Strategy, k.Point, k.Arg)
}

// Key returns the run's identity within its campaign.
func (r Run) Key() RunKey {
	return RunKey{Strategy: r.Strategy, Point: r.InjectionPoint, Arg: r.Arg, Sched: r.Sched}
}

// run returns an empty run carrying the key.
func (k RunKey) run() Run {
	return Run{InjectionPoint: k.Point, Strategy: k.Strategy, Arg: k.Arg, Sched: k.Sched}
}

// Profile is what one clean run discovered about the workload — the
// input perturbation strategies plan their experiment grids from.
type Profile struct {
	// TotalPoints is the clean run's potential-injection-point count.
	TotalPoints int
	// Calls is the clean run's per-method call count.
	Calls map[string]int64
	// Trace holds one (method, kind) entry per global point, recorded only
	// when the campaign has perturbations (core.Config.TracePoints).
	Trace []core.PointInfo
	// Program points back at the subject (registry, defer facts).
	Program *Program
}

// Experiment is one planned injector execution: its identity plus the
// session configuration that realizes it.
type Experiment struct {
	// Key is the experiment's identity in journals, chunks and resume.
	Key RunKey
	// Exec, when set, is the experiment's own executor: the campaign
	// worker calls it in place of the program's workload and records the
	// Run it returns, which must carry Key. Supervision, splicing and the
	// tally apply as to any run; settling does not (Exec takes no
	// snapshots). A concurrent schedule is one such experiment.
	Exec func() Run

	// point is the InjectionPoint threshold for threshold-driven
	// experiments (the default sweep and the oblivious model).
	point int
	// trigger drives trigger-based experiments (nth-activation, burst).
	trigger core.Trigger
	// exitMethod/exitCall target a deferred-cleanup fault: the fault fires
	// in the epilogue of exitMethod's exitCall-th invocation.
	exitMethod string
	exitCall   int64
	// oblivious swallows injected exceptions at the handler boundary.
	oblivious bool
	// trace records the per-point trace (the clean profiling run only).
	trace bool
	// spans records the call spans (the clean profiling run only).
	spans bool
	// predict is the clean run's span index: a threshold experiment's
	// first pass snapshots only the calls it predicts can unwind
	// (core.Config.Predict).
	predict *core.SpanIndex
}

// Perturbation is one pluggable fault strategy: it plans the experiments
// the campaign executes on top of the always-on default sweep. Plans must
// be deterministic functions of the profile — the same clean run must
// yield the same experiment list on every host, which is what makes
// multi-strategy campaigns resumable and dispatchable byte-identically.
type Perturbation interface {
	// Name is the strategy coordinate recorded in run keys ("nth",
	// "burst", "defer", "oblivious").
	Name() string
	// Plan returns the strategy's experiments for one clean-run profile.
	Plan(prof Profile) []Experiment
}

// Default grid bounds. Burst pairs grow quadratically with the point
// space and deferred-cleanup experiments with call counts, so both
// strategies are budgeted; the budgets are deterministic (stride
// sampling), not random.
const (
	// DefaultNth is the activation sweep depth of "nth" without an
	// explicit =N.
	DefaultNth = 3
	// DefaultBurstBudget caps the pair grid of "burst" without an
	// explicit =N.
	DefaultBurstBudget = 128
	// deferCallSweep bounds how many call ordinals of each defer-bearing
	// method the "defer" strategy targets.
	deferCallSweep = 2
)

// NthActivation fires the fault at the Nth activation of a static
// injection site — a (method, exception-kind) pair — sweeping n from 1 to
// min(N, the site's clean-run activation count). Site-targeted runs stay
// meaningful when the global point numbering drifts (a caught organic
// failure upstream shifts global points but not a site's own activation
// ordinals), and the grid is bounded by sites × N instead of the full
// dynamic point space.
type NthActivation struct {
	// N is the sweep depth per site.
	N int
}

// Name implements Perturbation.
func (NthActivation) Name() string { return "nth" }

// Plan implements Perturbation: sites are enumerated in first-occurrence
// order of the clean trace; experiment (site i, n) fires at the n-th
// activation of site i.
func (p NthActivation) Plan(prof Profile) []Experiment {
	n := p.N
	if n <= 0 {
		n = DefaultNth
	}
	type site struct {
		method string
		kind   fault.Kind
		hits   int
	}
	var sites []site
	index := make(map[core.PointInfo]int)
	for _, pi := range prof.Trace {
		if i, ok := index[pi]; ok {
			sites[i].hits++
			continue
		}
		index[pi] = len(sites)
		sites = append(sites, site{method: pi.Method, kind: pi.Kind, hits: 1})
	}
	var exps []Experiment
	for i, st := range sites {
		depth := st.hits
		if depth > n {
			depth = n
		}
		for a := 1; a <= depth; a++ {
			exps = append(exps, Experiment{
				Key:     RunKey{Strategy: p.Name(), Point: i + 1, Arg: a},
				trigger: nthTrigger{method: st.method, kind: st.kind, n: a},
			})
		}
	}
	return exps
}

// nthTrigger fires at the n-th activation of one (method, kind) site.
type nthTrigger struct {
	method string
	kind   fault.Kind
	n      int
}

func (t nthTrigger) ShouldFire(point int, method string, kind fault.Kind, activation int) bool {
	return method == t.method && kind == t.kind && activation == t.n
}

// Burst fires two faults per execution: one at global point p1 and — if
// the workload catches the first and keeps running — a second at global
// point p2. The second fault lands during recovery (a retry loop, a
// cleanup path, the code after a guard), which is exactly the state a
// single first-activation fault can never reach. The pair grid
// (p1 < p2 ≤ TotalPoints) is capped by Budget with deterministic stride
// sampling over the lexicographic pair order.
type Burst struct {
	// Budget caps the number of pairs (0 = DefaultBurstBudget).
	Budget int
}

// Name implements Perturbation.
func (Burst) Name() string { return "burst" }

// Plan implements Perturbation.
func (p Burst) Plan(prof Profile) []Experiment {
	budget := p.Budget
	if budget <= 0 {
		budget = DefaultBurstBudget
	}
	t := prof.TotalPoints
	total := t * (t - 1) / 2
	take := total
	if take > budget {
		take = budget
	}
	exps := make([]Experiment, 0, take)
	for k := 0; k < take; k++ {
		idx := k
		if total > budget {
			// Deterministic stride sample: the k-th of `budget` evenly
			// spaced indices into the lexicographic pair order.
			idx = k * total / budget
		}
		p1, p2 := unrankPair(idx, t)
		exps = append(exps, Experiment{
			Key:     RunKey{Strategy: p.Name(), Point: p1, Arg: p2},
			trigger: burstTrigger{p1: p1, p2: p2},
		})
	}
	return exps
}

// unrankPair maps a lexicographic index to the pair (p1, p2) with
// 1 <= p1 < p2 <= total.
func unrankPair(idx, total int) (int, int) {
	for p1 := 1; p1 < total; p1++ {
		c := total - p1
		if idx < c {
			return p1, p1 + 1 + idx
		}
		idx -= c
	}
	return total - 1, total
}

// burstTrigger fires at two global counter values. The session counter
// keeps advancing after a caught fault, so p2 is reachable during the
// workload's recovery from p1.
type burstTrigger struct{ p1, p2 int }

func (t burstTrigger) ShouldFire(point int, method string, kind fault.Kind, activation int) bool {
	return point == t.p1 || point == t.p2
}

// DeferredCleanup delays the fault until the workload is inside a
// deferred/cleanup region: the fault fires in the woven wrapper's
// epilogue — after the method body committed its effects — of each
// defer-bearing method, sweeping the first deferCallSweep call ordinals.
// Defer-bearing methods come from the weaver's MethodFacts
// (Program.DeferMethods); a program without facts falls back to every
// non-constructor method the clean run observed, since every woven
// wrapper epilogue is itself deferred code.
type DeferredCleanup struct{}

// Name implements Perturbation.
func (DeferredCleanup) Name() string { return "defer" }

// Plan implements Perturbation.
func (p DeferredCleanup) Plan(prof Profile) []Experiment {
	eligible := prof.Program.DeferMethods
	if len(eligible) == 0 {
		eligible = make(map[string]bool, len(prof.Calls))
		for name := range prof.Calls {
			info := prof.Program.Registry.Info(name)
			if info != nil && info.Ctor {
				continue
			}
			eligible[name] = true
		}
	}
	names := make([]string, 0, len(eligible))
	for name := range eligible {
		if eligible[name] && prof.Calls[name] > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var exps []Experiment
	for i, name := range names {
		sweep := prof.Calls[name]
		if sweep > deferCallSweep {
			sweep = deferCallSweep
		}
		for call := int64(1); call <= sweep; call++ {
			exps = append(exps, Experiment{
				Key:        RunKey{Strategy: p.Name(), Point: i + 1, Arg: int(call)},
				exitMethod: name,
				exitCall:   call,
			})
		}
	}
	return exps
}

// Oblivious replays the default sweep with failure-oblivious handling:
// the fault fires at each global point, the nearest receiver-bearing
// wrapper records its atomicity mark and then swallows the exception
// (its method returns zero values), and the workload runs on — the
// classification then says whether the object graph was already broken
// at the moment the failure was discarded.
type Oblivious struct{}

// Name implements Perturbation.
func (Oblivious) Name() string { return "oblivious" }

// Plan implements Perturbation.
func (p Oblivious) Plan(prof Profile) []Experiment {
	exps := make([]Experiment, 0, prof.TotalPoints)
	for pt := 1; pt <= prof.TotalPoints; pt++ {
		exps = append(exps, Experiment{
			Key:       RunKey{Strategy: p.Name(), Point: pt, Arg: 0},
			point:     pt,
			oblivious: true,
		})
	}
	return exps
}

// PerturbationNames lists the parseable strategy names.
func PerturbationNames() []string { return []string{"first", "nth", "burst", "defer", "oblivious"} }

// ParsePerturbations parses a -perturb flag value: a comma-separated
// strategy list like "nth=3,burst,oblivious". "first" names the always-on
// default sweep and adds nothing; "nth" defaults to N=3 and "burst" to a
// 128-pair budget, both overridable with =N. An empty string means no
// extra strategies.
func ParsePerturbations(s string) ([]Perturbation, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Perturbation
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		name, argStr, hasArg := strings.Cut(part, "=")
		arg := 0
		if hasArg {
			v, err := strconv.Atoi(argStr)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("inject: perturbation %q: argument must be a positive integer", part)
			}
			arg = v
		}
		if seen[name] {
			return nil, fmt.Errorf("inject: duplicate perturbation %q", name)
		}
		seen[name] = true
		switch name {
		case "first":
			if hasArg {
				return nil, fmt.Errorf("inject: perturbation %q takes no argument", name)
			}
			// The default sweep always runs; listing it is a no-op.
		case "nth":
			out = append(out, NthActivation{N: arg})
		case "burst":
			out = append(out, Burst{Budget: arg})
		case "defer", "oblivious":
			if hasArg {
				return nil, fmt.Errorf("inject: perturbation %q takes no argument", name)
			}
			if name == "defer" {
				out = append(out, DeferredCleanup{})
			} else {
				out = append(out, Oblivious{})
			}
		default:
			return nil, fmt.Errorf("inject: unknown perturbation %q (have: %s)", name, strings.Join(PerturbationNames(), ", "))
		}
	}
	return out, nil
}

// planExperiments builds the campaign's full experiment list: the default
// first-activation sweep over every point, then each strategy's grid in
// option order. The list is a pure function of the clean profile and the
// options, so sequential, parallel, resumed and dispatched campaigns all
// execute the identical plan. Every experiment shares the clean run's
// span index; the session predicts from it only in threshold experiments
// (the default sweep, oblivious).
func planExperiments(prof Profile, opts Options, index *core.SpanIndex) []Experiment {
	exps := make([]Experiment, 0, prof.TotalPoints)
	for pt := 1; pt <= prof.TotalPoints; pt++ {
		exps = append(exps, Experiment{Key: RunKey{Point: pt}, point: pt})
	}
	for _, pert := range opts.Perturbations {
		exps = append(exps, pert.Plan(prof)...)
	}
	for i := range exps {
		exps[i].predict = index
	}
	return exps
}

// cleanExperiment is the profiling run: threshold 0 never fires, the call
// spans are recorded for predicted snapshots, and the point trace is
// recorded when strategies will need it.
func cleanExperiment(opts Options) Experiment {
	return Experiment{trace: len(opts.Perturbations) > 0, spans: true}
}
