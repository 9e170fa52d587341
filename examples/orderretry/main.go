// The orderretry example demonstrates *why* failure atomicity matters for
// the recovery pattern the paper's introduction motivates: "recovery is
// often based on retrying failed methods ... for a retry to succeed, a
// failed method also has to leave changed objects in a consistent state."
//
// An order processor talks to a flaky payment gateway and retries failed
// submissions. Without masking, every failed attempt double-charges the
// running total and the retry loop commits corrupted state. With the
// failure non-atomic method masked, the same retry loop produces the
// correct result.
package main

import (
	"context"
	"fmt"
	"log"

	"failatomic"
)

// Method handles of the instrumented methods below.
var (
	mGatewayCharge            = failatomic.Method("Gateway.Charge")
	mProcessorSubmit          = failatomic.Method("Processor.Submit")
	mProcessorSubmitWithRetry = failatomic.Method("Processor.SubmitWithRetry")
)

// Gateway simulates a payment service that fails transiently: every
// attempt for an amount tagged flaky fails until Attempts reaches the
// configured reliability threshold.
type Gateway struct {
	Attempts   int
	FailsFirst int
}

// Charge throws IOError for the first FailsFirst attempts.
func (g *Gateway) Charge(amount int) {
	defer mGatewayCharge.Enter(g)()
	g.Attempts++
	if g.Attempts <= g.FailsFirst {
		failatomic.Throw(failatomic.IOError, "Gateway.Charge",
			"gateway unavailable (attempt %d)", g.Attempts)
	}
}

// Order is one customer order being processed.
type Order struct {
	Items   []string
	Total   int
	Charged bool
}

// Processor accumulates daily totals while submitting orders. Submit is
// failure non-atomic: the revenue counters are updated before the charge
// succeeds, so a failed (and later retried) submission double-counts.
//
// The gateway is held as a function value, not an object reference:
// function values are opaque to checkpointing, which models the paper's
// §4.4 boundary — the external world (the real payment network) is not
// part of the object graph and is never rolled back.
type Processor struct {
	Charge  func(amount int)
	Revenue int
	Orders  int
}

// Submit charges an order and records the revenue. BUG: commit before
// charge.
func (p *Processor) Submit(o *Order) {
	defer mProcessorSubmit.Enter(p, o)()
	p.Revenue += o.Total
	p.Orders++
	p.Charge(o.Total)
	o.Charged = true
}

// SubmitWithRetry is the recovery seam: catch, retry up to three times.
// Its correctness depends entirely on Submit being failure atomic.
func (p *Processor) SubmitWithRetry(o *Order) (err error) {
	defer mProcessorSubmitWithRetry.Enter(p, o)()
	for attempt := 0; attempt < 3; attempt++ {
		err = p.trySubmit(o)
		if err == nil {
			return nil
		}
	}
	return err
}

func (p *Processor) trySubmit(o *Order) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = failatomic.ExceptionFrom(r)
		}
	}()
	p.Submit(o)
	return nil
}

func registry() *failatomic.Registry {
	return failatomic.NewRegistry().
		Method("Gateway", "Charge", failatomic.IOError).
		Method("Processor", "Submit", failatomic.IOError).
		Method("Processor", "SubmitWithRetry")
}

func processDay(label string) {
	gateway := &Gateway{FailsFirst: 2} // first two attempts fail
	p := &Processor{Charge: gateway.Charge}
	orders := []*Order{
		{Items: []string{"book"}, Total: 30},
		{Items: []string{"pen", "ink"}, Total: 12},
	}
	for _, o := range orders {
		if err := p.SubmitWithRetry(o); err != nil {
			fmt.Printf("%s: order permanently failed: %v\n", label, err)
		}
	}
	fmt.Printf("%s: revenue=%d orders=%d (correct: 42 and 2)\n", label, p.Revenue, p.Orders)
}

func main() {
	// Detection phase: the injector finds Submit's non-atomicity without
	// needing the gateway to actually misbehave.
	result, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name:     "orderretry",
		Registry: registry(),
		Run: func() {
			gateway := &Gateway{}
			p := &Processor{Charge: gateway.Charge}
			_ = p.SubmitWithRetry(&Order{Items: []string{"x"}, Total: 5})
		},
	}, failatomic.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detected failure non-atomic: %v\n\n", result.NonAtomicMethods())

	// Without masking, the retry loop corrupts the totals.
	processDay("unmasked")

	// With the atomicity wrapper installed, the same code is correct.
	protection, err := failatomic.Protect(result.NonAtomicMethods(), failatomic.ProtectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer protection.Close()
	processDay("masked  ")
	fmt.Printf("\nmasked calls=%d rollbacks=%d\n",
		protection.MaskedCalls(), protection.Rollbacks())
}
