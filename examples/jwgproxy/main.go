// The jwgproxy example is the paper's "no source access" scenario (§5.2):
// a third-party type with no instrumentation at all is wrapped with
// runtime reflection proxies, and the same engine that drives woven code
// detects its non-atomic methods and masks them — the Java Wrapper
// Generator workflow, in Go.
package main

import (
	"context"
	"fmt"

	"failatomic"
	"failatomic/proxy"
)

// RateLimiter is "compiled third-party code": no prologues, plain methods.
// Take is failure non-atomic — it spends a token before checking the
// burst budget.
type RateLimiter struct {
	Tokens int
	Burst  int
	Taken  int
}

// Take consumes n tokens. BUG: spend, then validate.
func (rl *RateLimiter) Take(n int) int {
	rl.Tokens -= n
	rl.Taken += n
	if n > rl.Burst {
		failatomic.Throw(failatomic.IllegalArgument, "RateLimiter.Take",
			"burst %d exceeds limit %d", n, rl.Burst)
	}
	if rl.Tokens < 0 {
		failatomic.Throw(failatomic.IllegalState, "RateLimiter.Take", "out of tokens")
	}
	return rl.Tokens
}

// Refill adds tokens, validate-first (failure atomic).
func (rl *RateLimiter) Refill(n int) {
	if n <= 0 {
		failatomic.Throw(failatomic.IllegalArgument, "RateLimiter.Refill", "bad refill %d", n)
	}
	rl.Tokens += n
}

// workload drives a fresh RateLimiter through a proxy made by gen and
// returns the last call's error.
func workload(gen *proxy.Generator) error {
	p, err := gen.Wrap(&RateLimiter{Tokens: 10, Burst: 5})
	if err != nil {
		panic(err)
	}
	_, _ = p.Invoke("Take", 3)
	_, _ = p.Invoke("Refill", 0) // rejected before any change
	_, _ = p.Invoke("Refill", 2)
	_, err = p.Invoke("Take", 9) // exceeds burst after spending
	return err
}

func main() {
	// Interposition: a tracing filter sees every proxied call.
	var events []string
	traced := proxy.NewGenerator()
	traced.AddFilter(proxy.TraceFilter{Label: "app", Events: &events})
	if err := workload(traced); err != nil {
		fmt.Printf("observed: %v\n", err)
	}
	fmt.Printf("trace: %d filter events, first %q\n", len(events), events[0])

	// Phase 1 — detection: a campaign runs the workload once per injection
	// point, over a fresh proxy each time. The registry declares what each
	// method may throw; the runtime kinds are injected everywhere.
	result, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name: "RateLimiter",
		Registry: failatomic.NewRegistry().
			Method("RateLimiter", "Take", failatomic.IllegalArgument, failatomic.IllegalState).
			Method("RateLimiter", "Refill", failatomic.IllegalArgument),
		Run: func() { _ = workload(proxy.NewGenerator()) },
	}, failatomic.DetectOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncampaign: %d runs, %d injections\n", len(result.Campaign.Runs), result.Injections())
	for _, name := range result.Names() {
		m := result.Methods[name]
		fmt.Printf("  %s: %s\n", name, m.Classification)
		if m.SampleDiff != "" {
			fmt.Printf("    evidence: %s\n", m.SampleDiff)
		}
	}

	// Phase 2 — masking: Protect wraps exactly the flagged methods, and a
	// proxied call enters it like a woven one.
	protection, err := failatomic.Protect(result.NonAtomicMethods(), failatomic.ProtectOptions{})
	if err != nil {
		panic(err)
	}
	defer protection.Close()
	rl := &RateLimiter{Tokens: 10, Burst: 5}
	p, err := proxy.NewGenerator().Wrap(rl)
	if err != nil {
		panic(err)
	}
	if _, err := p.Invoke("Take", 9); err != nil {
		fmt.Printf("\nmasked call failed cleanly: %v\n", err)
	}
	fmt.Printf("state after masked failure: tokens=%d taken=%d (consistent!)\n",
		rl.Tokens, rl.Taken)
	results, err := p.Invoke("Take", 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("subsequent valid call: tokens left = %v, rollbacks = %d\n",
		results[0], protection.Rollbacks())
}
