package jwg

import (
	"errors"
	"testing"

	"failatomic/internal/fault"
)

// ledger is an uninstrumented third-party-style type: no prologues, plain
// Go methods. Post is failure non-atomic (balance committed before the
// limit check).
type ledger struct {
	Balance int
	Entries []string
}

func (l *ledger) Post(amount int, memo string) int {
	l.Balance += amount
	if l.Balance > 1000 {
		fault.Throw(fault.IllegalState, "ledger.Post", "limit exceeded")
	}
	l.Entries = append(l.Entries, memo)
	return l.Balance
}

func (l *ledger) Get() int { return l.Balance }

func TestWrapRequiresPointer(t *testing.T) {
	g := NewGenerator()
	if _, err := g.Wrap(ledger{}); err == nil {
		t.Fatal("value target must be rejected")
	}
	if _, err := g.Wrap(nil); err == nil {
		t.Fatal("nil target must be rejected")
	}
	var nilLedger *ledger
	if _, err := g.Wrap(nilLedger); err == nil {
		t.Fatal("nil pointer must be rejected")
	}
}

func TestInvokePassesArgsAndResults(t *testing.T) {
	g := NewGenerator()
	p, err := g.Wrap(&ledger{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.Invoke("Post", 100, "rent")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0] != 100 {
		t.Fatalf("results = %v", results)
	}
	if p.Class() != "ledger" {
		t.Fatalf("class = %q", p.Class())
	}
}

func TestInvokeErrors(t *testing.T) {
	g := NewGenerator()
	p, _ := g.Wrap(&ledger{})
	if _, err := p.Invoke("Nope"); err == nil {
		t.Fatal("unknown method must error")
	}
	if _, err := p.Invoke("Post", 1); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := p.Invoke("Post", "x", "y"); err == nil {
		t.Fatal("type mismatch must error")
	}
}

func TestExceptionPropagatesAsError(t *testing.T) {
	g := NewGenerator()
	p, _ := g.Wrap(&ledger{Balance: 990})
	_, err := p.Invoke("Post", 50, "overflow")
	var exc *fault.Exception
	if !errors.As(err, &exc) || exc.Kind != fault.IllegalState {
		t.Fatalf("err = %v", err)
	}
}

func TestFilterOrdering(t *testing.T) {
	var events []string
	g := NewGenerator()
	g.AddFilter(TraceFilter{Label: "app", Events: &events})
	g.AddClassFilter("ledger", TraceFilter{Label: "class", Events: &events})
	g.AddMethodFilter("ledger.Post", TraceFilter{Label: "method", Events: &events})
	p, _ := g.Wrap(&ledger{})
	p.AddFilter(TraceFilter{Label: "instance", Events: &events})

	if _, err := p.Invoke("Post", 1, "x"); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"pre:app:ledger.Post",
		"pre:class:ledger.Post",
		"pre:instance:ledger.Post",
		"pre:method:ledger.Post",
		"post:method:ledger.Post",
		"post:instance:ledger.Post",
		"post:class:ledger.Post",
		"post:app:ledger.Post",
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events[%d] = %q, want %q", i, events[i], want[i])
		}
	}
}

func TestBypass(t *testing.T) {
	g := NewGenerator()
	g.AddMethodFilter("ledger.Get", FilterFuncs{
		Pre: func(inv *Invocation) { inv.Bypass(42) },
	})
	l := &ledger{Balance: 7}
	p, _ := g.Wrap(l)
	results, err := p.Invoke("Get")
	if err != nil || results[0] != 42 {
		t.Fatalf("bypass failed: %v %v", results, err)
	}
	if l.Balance != 7 {
		t.Fatal("bypassed method must not run")
	}
}

func TestArgumentModification(t *testing.T) {
	g := NewGenerator()
	g.AddFilter(FilterFuncs{
		Pre: func(inv *Invocation) {
			if inv.Method == "Post" {
				inv.Args[0] = inv.Args[0].(int) * 2
			}
		},
	})
	p, _ := g.Wrap(&ledger{})
	results, err := p.Invoke("Post", 10, "doubled")
	if err != nil || results[0] != 20 {
		t.Fatalf("arg modification failed: %v %v", results, err)
	}
}

func TestInjectionFilterCampaign(t *testing.T) {
	// Proxied detection campaign over an uninstrumented type: count the
	// points, then inject at every one.
	run := func(injectionPoint int) (*InjectionFilter, *DetectionFilter, error) {
		g := NewGenerator()
		inj := &InjectionFilter{InjectionPoint: injectionPoint}
		det := &DetectionFilter{}
		g.AddFilter(inj)
		g.AddFilter(det)
		p, err := g.Wrap(&ledger{})
		if err != nil {
			t.Fatal(err)
		}
		var firstErr error
		for i := 0; i < 3; i++ {
			if _, err := p.Invoke("Post", 10, "m"); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return inj, det, firstErr
	}

	clean, _, err := run(0)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if clean.Point == 0 {
		t.Fatal("no injection points counted")
	}
	nonAtomic := 0
	for ip := 1; ip <= clean.Point; ip++ {
		inj, det, err := run(ip)
		if inj.Injected == nil {
			t.Fatalf("point %d did not fire", ip)
		}
		if err == nil {
			t.Fatalf("point %d: exception did not propagate", ip)
		}
		// Injection happens in the Before chain, before the body runs, so
		// every proxied mark must be atomic (nothing mutated yet).
		for _, m := range det.Marks {
			if !m.Atomic {
				nonAtomic++
			}
		}
	}
	if nonAtomic != 0 {
		t.Fatalf("pre-call injections cannot reveal non-atomicity, got %d marks", nonAtomic)
	}
}

func TestDetectionFilterFindsOrganicNonAtomicity(t *testing.T) {
	g := NewGenerator()
	det := &DetectionFilter{}
	g.AddFilter(det)
	p, _ := g.Wrap(&ledger{Balance: 990})
	if _, err := p.Invoke("Post", 50, "boom"); err == nil {
		t.Fatal("expected exception")
	}
	na := det.NonAtomicMethods()
	if len(na) != 1 || na[0] != "ledger.Post" {
		t.Fatalf("NonAtomicMethods = %v (marks %+v)", na, det.Marks)
	}
	if det.Marks[0].Diff == "" {
		t.Fatal("mark must carry a diff")
	}
}

// wallet is a second uninstrumented type whose Pay calls a proxied ledger
// through post: Pay raises Spent, posts, and throws when the post failed.
type wallet struct {
	Spent int
}

func (w *wallet) Pay(amount int, post func(amount int) error) {
	w.Spent += amount
	if err := post(amount); err != nil {
		fault.Throw(fault.IllegalState, "wallet.Pay", "post failed: %v", err)
	}
}

// nestedPay wraps a ledger and a wallet with the given application-level
// filters and pays into the ledger through both proxies.
func nestedPay(t *testing.T, filters ...Filter) (*wallet, *ledger, error) {
	t.Helper()
	g := NewGenerator()
	for _, f := range filters {
		g.AddFilter(f)
	}
	l := &ledger{Balance: 990}
	lp, err := g.Wrap(l)
	if err != nil {
		t.Fatal(err)
	}
	w := &wallet{}
	wp, err := g.Wrap(w)
	if err != nil {
		t.Fatal(err)
	}
	post := func(amount int) error {
		_, err := lp.Invoke("Post", amount, "pay")
		return err
	}
	_, err = wp.Invoke("Pay", 50, post)
	return w, l, err
}

// TestDetectionFilterNestedCalls: a proxied call made inside another
// proxied call must not end the outer call's observation. The ledger's
// Post and then the wallet's Pay both throw, and both left state behind,
// so both are marked non-atomic, innermost first.
func TestDetectionFilterNestedCalls(t *testing.T) {
	det := &DetectionFilter{}
	if _, _, err := nestedPay(t, det); err == nil {
		t.Fatal("expected exception")
	}
	if len(det.Marks) != 2 || det.Marks[0].Method != "ledger.Post" || det.Marks[1].Method != "wallet.Pay" {
		t.Fatalf("marks = %+v, want ledger.Post then wallet.Pay", det.Marks)
	}
	for _, m := range det.Marks {
		if m.Atomic || m.Diff == "" {
			t.Fatalf("%s must be marked non-atomic with a diff: %+v", m.Method, m)
		}
	}
	if len(det.befores) != 0 {
		t.Fatalf("%d before-graphs left open", len(det.befores))
	}
}

// TestMaskingFilterNestedCalls: each nested proxied call rolls back its
// own target.
func TestMaskingFilterNestedCalls(t *testing.T) {
	mask := &MaskingFilter{}
	w, l, err := nestedPay(t, mask)
	if err == nil {
		t.Fatal("masking without Swallow must re-throw")
	}
	if w.Spent != 0 || l.Balance != 990 || mask.Rollbacks != 2 {
		t.Fatalf("spent %d, balance %d, %d rollbacks; want 0, 990, 2", w.Spent, l.Balance, mask.Rollbacks)
	}
}

func TestMaskingFilterRollsBack(t *testing.T) {
	g := NewGenerator()
	mask := &MaskingFilter{}
	g.AddMethodFilter("ledger.Post", mask)
	l := &ledger{Balance: 990}
	p, _ := g.Wrap(l)
	_, err := p.Invoke("Post", 50, "boom")
	if err == nil {
		t.Fatal("masking without Swallow must re-throw")
	}
	if l.Balance != 990 {
		t.Fatalf("balance = %d, want rollback to 990", l.Balance)
	}
	if mask.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d", mask.Rollbacks)
	}
	// Successful calls commit.
	if _, err := p.Invoke("Post", 5, "ok"); err != nil {
		t.Fatal(err)
	}
	if l.Balance != 995 {
		t.Fatalf("balance = %d after commit", l.Balance)
	}
}

func TestMaskingFilterSwallow(t *testing.T) {
	g := NewGenerator()
	g.AddMethodFilter("ledger.Post", &MaskingFilter{Swallow: true})
	l := &ledger{Balance: 990}
	p, _ := g.Wrap(l)
	if _, err := p.Invoke("Post", 50, "boom"); err != nil {
		t.Fatalf("swallowed exception escaped: %v", err)
	}
	if l.Balance != 990 {
		t.Fatal("rollback must still happen")
	}
}

func TestCombinedDetectThenMask(t *testing.T) {
	// The paper's full loop over an uninstrumented type: detect, then wrap
	// exactly the flagged methods and verify the masked behavior.
	g := NewGenerator()
	det := &DetectionFilter{}
	g.AddFilter(det)
	p, _ := g.Wrap(&ledger{Balance: 990})
	_, _ = p.Invoke("Post", 50, "probe")

	g2 := NewGenerator()
	verify := &DetectionFilter{}
	g2.AddFilter(verify)
	for _, m := range det.NonAtomicMethods() {
		g2.AddMethodFilter(m, &MaskingFilter{})
	}
	l := &ledger{Balance: 990}
	p2, _ := g2.Wrap(l)
	if _, err := p2.Invoke("Post", 50, "probe"); err == nil {
		t.Fatal("exception should still propagate")
	}
	for _, m := range verify.Marks {
		if !m.Atomic {
			t.Fatalf("masked method observed non-atomic: %+v", m)
		}
	}
}

func TestMustInvokeAndTarget(t *testing.T) {
	g := NewGenerator()
	l := &ledger{}
	p, _ := g.Wrap(l)
	results := p.MustInvoke("Post", 10, "ok")
	if results[0] != 10 {
		t.Fatalf("results = %v", results)
	}
	if p.Target().(*ledger) != l {
		t.Fatal("Target must return the wrapped object")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustInvoke must panic on exceptions")
		}
	}()
	p2, _ := g.Wrap(&ledger{Balance: 5000})
	p2.MustInvoke("Post", 1, "over limit")
}

func TestOutcomeMaskWithReplacementResults(t *testing.T) {
	g := NewGenerator()
	g.AddMethodFilter("ledger.Post", FilterFuncs{
		Post: func(inv *Invocation, out *Outcome) {
			if out.Exception != nil {
				out.Mask(-1) // degrade gracefully with a sentinel result
			}
		},
	})
	p, _ := g.Wrap(&ledger{Balance: 5000})
	results, err := p.Invoke("Post", 1, "x")
	if err != nil {
		t.Fatalf("masked exception escaped: %v", err)
	}
	if results[0] != -1 {
		t.Fatalf("replacement results = %v", results)
	}
}

func TestPostFilterPanicBecomesException(t *testing.T) {
	g := NewGenerator()
	g.AddFilter(FilterFuncs{
		Post: func(inv *Invocation, out *Outcome) {
			panic("post filter bug")
		},
	})
	p, _ := g.Wrap(&ledger{})
	_, err := p.Invoke("Get")
	var exc *fault.Exception
	if !errors.As(err, &exc) || exc.Kind != fault.RuntimeError {
		t.Fatalf("post-filter panic must surface as RuntimeError, got %v", err)
	}
}

func TestNilArgumentForPointerParam(t *testing.T) {
	g := NewGenerator()
	p, _ := g.Wrap(&nilable{})
	if _, err := p.Invoke("Set", nil); err != nil {
		t.Fatalf("nil argument for pointer parameter must work: %v", err)
	}
}

type nilable struct{ P *int }

func (n *nilable) Set(p *int) { n.P = p }

func TestConvertibleArguments(t *testing.T) {
	g := NewGenerator()
	p, _ := g.Wrap(&ledger{})
	// int64 converts to int.
	results, err := p.Invoke("Post", int64(7), "conv")
	if err != nil || results[0] != 7 {
		t.Fatalf("convertible arg failed: %v %v", results, err)
	}
}

func TestMaskingFilterCaptureFailure(t *testing.T) {
	g := NewGenerator()
	mask := &MaskingFilter{}
	g.AddMethodFilter("opaque.Touch", mask)
	p, _ := g.Wrap(&opaque{})
	if _, err := p.Invoke("Touch"); err != nil {
		t.Fatalf("capture failure must not break the call: %v", err)
	}
	if len(mask.Skips) != 1 {
		t.Fatalf("capture failure must be recorded: %v", mask.Skips)
	}
}

type opaque struct {
	Visible int
	secret  int
}

func (o *opaque) Touch() { o.Visible++ }

func TestBypassSkipsLaterFiltersEntirely(t *testing.T) {
	var events []string
	g := NewGenerator()
	g.AddFilter(TraceFilter{Label: "first", Events: &events})
	g.AddFilter(FilterFuncs{Pre: func(inv *Invocation) { inv.Bypass(0) }})
	g.AddFilter(TraceFilter{Label: "last", Events: &events})
	p, _ := g.Wrap(&ledger{})
	if _, err := p.Invoke("Get"); err != nil {
		t.Fatal(err)
	}
	// "last" never entered, so neither its Before nor its After may run.
	for _, e := range events {
		if e == "pre:last:ledger.Get" || e == "post:last:ledger.Get" {
			t.Fatalf("bypassed filter ran: %v", events)
		}
	}
	if events[len(events)-1] != "post:first:ledger.Get" {
		t.Fatalf("entered filters must still unwind: %v", events)
	}
}
