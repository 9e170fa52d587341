package proxy

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"failatomic"
	"failatomic/internal/fault"
)

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

// nestedPay wraps a ledger and a wallet and pays into the ledger through
// both proxies: the ledger's Post, called inside the wallet's Pay, throws.
func nestedPay() (*wallet, *ledger, error) {
	g := NewGenerator()
	l := &ledger{Balance: 990}
	lp, _ := g.Wrap(l)
	w := &wallet{}
	wp, _ := g.Wrap(w)
	post := func(amount int) error {
		_, err := lp.Invoke("Post", amount, "pay")
		return err
	}
	_, err := wp.Invoke("Pay", 50, post)
	return w, l, err
}

// opaque has unexported state, so a deep-copy checkpoint cannot capture it.
type opaque struct {
	Visible int
	secret  int
}

func (o *opaque) Touch() { o.Visible++ }

// detect runs a detection campaign whose workload calls through proxies.
func detect(t *testing.T, run func(), opts failatomic.DetectOptions) *failatomic.Result {
	t.Helper()
	res, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name:     "proxied",
		Registry: failatomic.NewRegistry(),
		Run:      run,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// protect installs Protect for the listed methods until the test ends.
func protect(t *testing.T, methods ...string) *failatomic.Protection {
	t.Helper()
	p, err := failatomic.Protect(methods, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestDetectPreCallInjections: a campaign over top-level proxied calls
// fires every point, each injected exception comes back as Invoke's
// error, and none is marked non-atomic — an injection precedes the body,
// so nothing was mutated yet.
func TestDetectPreCallInjections(t *testing.T) {
	var injected atomic.Int32
	res := detect(t, func() {
		p, err := NewGenerator().Wrap(&ledger{})
		if err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ {
			var exc *fault.Exception
			if _, err := p.Invoke("Post", 10, "m"); errors.As(err, &exc) && exc.Injected {
				injected.Add(1)
			}
		}
	}, failatomic.DetectOptions{})
	points := 3 * len(fault.RuntimeKinds())
	if res.Campaign.TotalPoints != points || res.Injections() != points {
		t.Fatalf("%d points, %d injections; want %d of each", res.Campaign.TotalPoints, res.Injections(), points)
	}
	if int(injected.Load()) != points {
		t.Fatalf("%d injected exceptions reached the caller, want %d", injected.Load(), points)
	}
	for _, run := range res.Campaign.Runs {
		for _, m := range run.Marks {
			if !m.Atomic {
				t.Fatalf("point %d: pre-call injection marked %s non-atomic", run.InjectionPoint, m.Method)
			}
		}
	}
	if na := res.NonAtomicMethods(); len(na) != 0 {
		t.Fatalf("NonAtomicMethods = %v, want none", na)
	}
}

// TestDetectMistypedCallIsNoPoint: arguments that do not fit fail before
// the prologue, so the call is neither counted nor injected.
func TestDetectMistypedCallIsNoPoint(t *testing.T) {
	res := detect(t, func() {
		p, _ := NewGenerator().Wrap(&ledger{})
		var exc *fault.Exception
		if _, err := p.Invoke("Post", "x", "y"); !errors.As(err, &exc) || exc.Kind != fault.IllegalArgument {
			panic("mistyped call must fail with IllegalArgument")
		}
	}, failatomic.DetectOptions{})
	if res.Campaign.TotalPoints != 0 || res.Calls()["ledger.Post"] != 0 {
		t.Fatalf("%d points, calls %v; want none", res.Campaign.TotalPoints, res.Calls())
	}
}

// TestDetectOrganicNonAtomicity: an organic exception through a proxied
// call is marked non-atomic with the path to the difference.
func TestDetectOrganicNonAtomicity(t *testing.T) {
	res := detect(t, func() {
		p, _ := NewGenerator().Wrap(&ledger{Balance: 990})
		_, _ = p.Invoke("Post", 50, "boom")
	}, failatomic.DetectOptions{})
	if na := res.NonAtomicMethods(); !slices.Equal(na, []string{"ledger.Post"}) {
		t.Fatalf("NonAtomicMethods = %v, want [ledger.Post]", na)
	}
	if diff := res.Methods["ledger.Post"].SampleDiff; diff == "" {
		t.Fatal("the non-atomic verdict must carry a diff")
	}
}

// TestDetectNestedCalls: a proxied call made inside another proxied call
// nests like woven calls. The ledger's Post and then the wallet's Pay both
// throw, and both left state behind, so both are marked non-atomic,
// innermost first.
func TestDetectNestedCalls(t *testing.T) {
	res := detect(t, func() {
		if _, _, err := nestedPay(); err == nil {
			panic("expected exception")
		}
	}, failatomic.DetectOptions{})
	marks := res.Campaign.Runs[0].Marks
	if len(marks) != 2 || marks[0].Method != "ledger.Post" || marks[1].Method != "wallet.Pay" {
		t.Fatalf("marks = %+v, want ledger.Post then wallet.Pay", marks)
	}
	for _, m := range marks {
		if m.Atomic || m.Diff == "" {
			t.Fatalf("%s must be marked non-atomic with a diff: %+v", m.Method, m)
		}
	}
}

// TestProtectNestedCalls: each nested proxied call rolls back its own
// target.
func TestProtectNestedCalls(t *testing.T) {
	p := protect(t, "ledger.Post", "wallet.Pay")
	w, l, err := nestedPay()
	if err == nil {
		t.Fatal("masking must re-throw")
	}
	if w.Spent != 0 || l.Balance != 990 || p.Rollbacks() != 2 {
		t.Fatalf("spent %d, balance %d, %d rollbacks; want 0, 990, 2", w.Spent, l.Balance, p.Rollbacks())
	}
}

func TestProtectRollsBack(t *testing.T) {
	p := protect(t, "ledger.Post")
	l := &ledger{Balance: 990}
	lp, _ := NewGenerator().Wrap(l)
	if _, err := lp.Invoke("Post", 50, "boom"); err == nil {
		t.Fatal("masking must re-throw")
	}
	if l.Balance != 990 {
		t.Fatalf("balance = %d, want rollback to 990", l.Balance)
	}
	if p.Rollbacks() != 1 {
		t.Fatalf("rollbacks = %d", p.Rollbacks())
	}
	// Successful calls commit.
	if _, err := lp.Invoke("Post", 5, "ok"); err != nil {
		t.Fatal(err)
	}
	if l.Balance != 995 || p.MaskedCalls() != 2 {
		t.Fatalf("balance = %d after commit, %d masked calls", l.Balance, p.MaskedCalls())
	}
}

// TestProtectThenSwallow: a post-filter masks the exception Protect
// rolled back, so the caller sees a normal return.
func TestProtectThenSwallow(t *testing.T) {
	protect(t, "ledger.Post")
	g := NewGenerator()
	g.AddMethodFilter("ledger.Post", FilterFuncs{Post: func(inv *Invocation, out *Outcome) {
		if out.Exception != nil {
			out.Mask()
		}
	}})
	l := &ledger{Balance: 990}
	lp, _ := g.Wrap(l)
	if _, err := lp.Invoke("Post", 50, "boom"); err != nil {
		t.Fatalf("swallowed exception escaped: %v", err)
	}
	if l.Balance != 990 {
		t.Fatal("rollback must still happen")
	}
}

func TestProtectCaptureFailure(t *testing.T) {
	p := protect(t, "opaque.Touch")
	op, _ := NewGenerator().Wrap(&opaque{})
	if _, err := op.Invoke("Touch"); err != nil {
		t.Fatalf("capture failure must not break the call: %v", err)
	}
	if skips := p.Skips(); len(skips) != 1 || skips[0].Method != "opaque.Touch" {
		t.Fatalf("capture failure must be recorded: %v", skips)
	}
}

// TestDetectThenMask is the paper's full loop over an uninstrumented
// type: detect, then mask exactly the flagged methods and verify clean.
func TestDetectThenMask(t *testing.T) {
	var escaped atomic.Int32
	run := func() {
		p, _ := NewGenerator().Wrap(&ledger{Balance: 990})
		if _, err := p.Invoke("Post", 50, "probe"); err != nil {
			escaped.Add(1)
		}
	}
	found := detect(t, run, failatomic.DetectOptions{})
	if len(found.NonAtomicMethods()) == 0 {
		t.Fatal("detection found nothing to mask")
	}
	mask := make(map[string]bool)
	for _, m := range found.NonAtomicMethods() {
		mask[m] = true
	}
	escaped.Store(0)
	verify := detect(t, run, failatomic.DetectOptions{Mask: mask})
	if na := verify.NonAtomicMethods(); len(na) != 0 {
		t.Fatalf("masked methods observed non-atomic: %v", na)
	}
	if escaped.Load() == 0 {
		t.Fatal("the exception must still propagate")
	}
}
