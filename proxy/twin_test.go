package proxy_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"failatomic"
	"failatomic/internal/replog"
	"failatomic/internal/weave"
	"failatomic/proxy"
	"failatomic/proxy/internal/twin/plain"
	"failatomic/proxy/internal/twin/woven"
)

// TestTwinIsWoven: the woven twin is exactly what the weaver makes of the
// plain twin, package clause aside.
func TestTwinIsWoven(t *testing.T) {
	dir := filepath.Join("internal", "twin")
	src, err := os.ReadFile(filepath.Join(dir, "plain", "ledger.go"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "woven", "ledger.go"))
	if err != nil {
		t.Fatal(err)
	}
	got, changed, err := weave.InstrumentFile("ledger.go", src, weave.Options{})
	if err != nil || !changed {
		t.Fatalf("weaving the plain twin: changed %v, %v", changed, err)
	}
	got = bytes.Replace(got, []byte("package plain\n"), []byte("package woven\n"), 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("woven twin is not the plain twin woven; weaving gives:\n%s", got)
	}
}

// ledger is the twin workload's view of one Ledger: calls that return
// after an exception the way Invoke does.
type ledger interface {
	post(amount int, memo string)
	raise(by int)
	total()
}

// proxied calls the plain twin through a proxy.
type proxied struct{ p *proxy.Proxy }

func (l proxied) post(amount int, memo string) { _, _ = l.p.Invoke("Post", amount, memo) }
func (l proxied) raise(by int)                 { _, _ = l.p.Invoke("Raise", by) }
func (l proxied) total()                       { _, _ = l.p.Invoke("Total") }

// direct calls the woven twin, recovering its exceptions.
type direct struct{ l *woven.Ledger }

func (l direct) post(amount int, memo string) { try(func() { l.l.Post(amount, memo) }) }
func (l direct) raise(by int)                 { try(func() { l.l.Raise(by) }) }
func (l direct) total()                       { try(func() { l.l.Total() }) }

func try(call func()) {
	defer func() { _ = recover() }()
	call()
}

func newProxied() ledger {
	p, err := proxy.NewGenerator().Wrap(&plain.Ledger{Limit: 100})
	if err != nil {
		panic(err)
	}
	return proxied{p}
}

func newDirect() ledger { return direct{&woven.Ledger{Limit: 100}} }

// twinWorkload posts past the limit (an organic, non-atomic failure) and
// raises by a bad amount (an organic, atomic one).
func twinWorkload(newLedger func() ledger) func() {
	return func() {
		l := newLedger()
		l.post(40, "rent")
		l.total()
		l.post(70, "car")
		l.raise(0)
		l.raise(50)
		l.post(20, "food")
		l.total()
	}
}

func twinLog(t *testing.T, newLedger func() ledger, parallelism int) []byte {
	t.Helper()
	reg := failatomic.NewRegistry().
		Method("Ledger", "Post", failatomic.IllegalState).
		Method("Ledger", "Raise", failatomic.IllegalArgument)
	res, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name: "Ledger", Registry: reg, Run: twinWorkload(newLedger),
	}, failatomic.DetectOptions{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PureNonAtomicMethods(); len(got) != 1 || got[0] != "Ledger.Post" {
		t.Fatalf("pure non-atomic = %v, want [Ledger.Post]", got)
	}
	var buf bytes.Buffer
	if err := replog.Write(&buf, res.Campaign); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWovenEqualsProxied: detection over the woven twin called directly
// and over the plain twin through a proxy writes the same log, at any
// parallelism.
func TestWovenEqualsProxied(t *testing.T) {
	want := twinLog(t, newDirect, 1)
	for _, parallelism := range []int{1, 4} {
		if got := twinLog(t, newProxied, parallelism); !bytes.Equal(got, want) {
			t.Fatalf("proxied log at parallelism %d differs from the woven log:\n%s\nwant:\n%s", parallelism, got, want)
		}
		if got := twinLog(t, newDirect, parallelism); !bytes.Equal(got, want) {
			t.Fatalf("woven log at parallelism %d differs from parallelism 1", parallelism)
		}
	}
}

// TestWovenEqualsProxiedMasked: Protect rolls both twins back alike.
func TestWovenEqualsProxiedMasked(t *testing.T) {
	masked := func(newLedger func() ledger) (rollbacks, calls int64) {
		p, err := failatomic.Protect([]string{"Ledger.Post", "Ledger.Raise"}, failatomic.ProtectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		twinWorkload(newLedger)()
		return p.Rollbacks(), p.MaskedCalls()
	}
	dr, dc := masked(newDirect)
	pr, pc := masked(newProxied)
	if dr != pr || dc != pc || dr == 0 {
		t.Fatalf("woven: %d rollbacks of %d masked calls; proxied: %d of %d", dr, dc, pr, pc)
	}
}
