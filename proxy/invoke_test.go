package proxy

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

// TestWrapRejectsUnnamedType: a proxy's handles are named "Class.Method"
// process-wide, so a type with no name would share them with every other
// unnamed type.
func TestWrapRejectsUnnamedType(t *testing.T) {
	if _, err := NewGenerator().Wrap(&struct{ X int }{}); err == nil {
		t.Fatal("pointer to an unnamed type must be rejected")
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
