package proxy_test

import (
	"context"
	"slices"
	"testing"

	"failatomic"
	"failatomic/proxy"
)

// turnstile is an uninstrumented subject: Pass is failure non-atomic.
type turnstile struct {
	Count  int
	Locked bool
}

func (t *turnstile) Pass() int {
	t.Count++
	if t.Locked {
		failatomic.Throw(failatomic.IllegalState, "turnstile.Pass", "locked")
	}
	return t.Count
}

func (t *turnstile) Lock()   { t.Locked = true }
func (t *turnstile) Unlock() { t.Locked = false }

// detect runs a detection campaign whose workload calls through proxies.
func detect(t *testing.T, reg *failatomic.Registry, run func()) *failatomic.Result {
	t.Helper()
	res, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name: "turnstile", Registry: reg, Run: run,
	}, failatomic.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPublicProxyWorkflow(t *testing.T) {
	res := detect(t, failatomic.NewRegistry(), func() {
		p, err := proxy.NewGenerator().Wrap(&turnstile{Locked: true})
		if err != nil {
			panic(err)
		}
		_, _ = p.Invoke("Pass")
	})
	na := res.NonAtomicMethods()
	if !slices.Equal(na, []string{"turnstile.Pass"}) {
		t.Fatalf("detection over proxy failed: %v", na)
	}

	protection, err := failatomic.Protect(na, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer protection.Close()
	ts := &turnstile{Locked: true}
	p, err := proxy.NewGenerator().Wrap(ts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Pass"); err == nil {
		t.Fatal("masked method must still re-throw")
	}
	if ts.Count != 0 {
		t.Fatalf("rollback failed: count=%d", ts.Count)
	}
	if _, err := p.Invoke("Unlock"); err != nil {
		t.Fatal(err)
	}
	results, err := p.Invoke("Pass")
	if err != nil || results[0] != 1 {
		t.Fatalf("post-unlock pass: %v %v", results, err)
	}
	if protection.Rollbacks() != 1 {
		t.Fatalf("rollbacks = %d", protection.Rollbacks())
	}
}

// TestInjectionCampaignOverProxy: the Program's Registry supplies a
// proxied method's declared kinds, and every point fires.
func TestInjectionCampaignOverProxy(t *testing.T) {
	reg := failatomic.NewRegistry().Method("turnstile", "Pass", failatomic.IllegalState)
	res := detect(t, reg, func() {
		p, _ := proxy.NewGenerator().Wrap(&turnstile{})
		for i := 0; i < 4; i++ {
			if _, err := p.Invoke("Pass"); err != nil {
				break
			}
		}
	})
	if res.Campaign.TotalPoints != 4*3 { // 1 declared + 2 runtime kinds per call
		t.Fatalf("points = %d, want 12", res.Campaign.TotalPoints)
	}
	if res.Injections() != res.Campaign.TotalPoints {
		t.Fatalf("fired %d of %d points", res.Injections(), res.Campaign.TotalPoints)
	}
}

// gate journals its updates, so masking rolls it back through its undo log;
// its unexported journal field rules out a deep copy.
type gate struct {
	Count   int
	journal *failatomic.Journal
}

func (g *gate) BeginJournal(j *failatomic.Journal) *failatomic.Journal {
	prev := g.journal
	g.journal = j
	return prev
}

func (g *gate) EndJournal(prev *failatomic.Journal) { g.journal = prev }

// Pass admits one more visitor, up to limit; it counts before checking.
func (g *gate) Pass(limit int) int {
	old := g.Count
	g.Count++
	if g.journal != nil {
		g.journal.Record(8, func() { g.Count = old })
	}
	if g.Count > limit {
		failatomic.Throw(failatomic.IllegalState, "gate.Pass", "full")
	}
	return g.Count
}

func TestProtectUndoLogOverProxy(t *testing.T) {
	protection, err := failatomic.Protect([]string{"gate.Pass"}, failatomic.ProtectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer protection.Close()
	g := &gate{}
	p, _ := proxy.NewGenerator().Wrap(g)
	if _, err := p.Invoke("Pass", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke("Pass", 1); err == nil {
		t.Fatal("a full gate must throw")
	}
	if g.Count != 1 || protection.Rollbacks() != 1 || len(protection.Skips()) != 0 {
		t.Fatalf("count %d, %d rollbacks, skips %v; want 1, 1, none", g.Count, protection.Rollbacks(), protection.Skips())
	}
}
