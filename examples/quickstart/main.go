// The quickstart example walks the paper's whole loop on a ten-line type:
// instrument, detect failure non-atomic methods via exception injection,
// and mask them with automatic checkpoint/rollback.
package main

import (
	"context"
	"fmt"
	"log"

	"failatomic"
)

// Method handles of the instrumented methods below.
var (
	mInventoryNew         = failatomic.Method("Inventory.New")
	mInventoryReserve     = failatomic.Method("Inventory.Reserve")
	mInventoryReserveSafe = failatomic.Method("Inventory.ReserveSafe")
	mInventoryvalidate    = failatomic.Method("Inventory.validate")
)

// Inventory tracks stock levels. Reserve is written in the classic broken
// style: it decrements stock *before* validating the order, so a rejected
// order corrupts the count.
type Inventory struct {
	Stock    map[string]int
	Reserved int
}

// NewInventory returns a stocked inventory.
func NewInventory() *Inventory {
	defer mInventoryNew.Enter(nil)()
	return &Inventory{Stock: map[string]int{"widget": 10, "gadget": 4}}
}

// Reserve takes n units of item out of stock. BUG: the mutation precedes
// the validation.
func (inv *Inventory) Reserve(item string, n int) {
	defer mInventoryReserve.Enter(inv)()
	inv.Stock[item] -= n
	inv.Reserved += n
	inv.validate(item)
}

// ReserveSafe is the repaired variant: validate, then commit.
func (inv *Inventory) ReserveSafe(item string, n int) {
	defer mInventoryReserveSafe.Enter(inv)()
	inv.validate(item)
	if inv.Stock[item] < n {
		failatomic.Throw(failatomic.IllegalArgument, "Inventory.ReserveSafe",
			"only %d %s left", inv.Stock[item], item)
	}
	inv.Stock[item] -= n
	inv.Reserved += n
}

// validate throws for unknown items and oversold stock.
func (inv *Inventory) validate(item string) {
	defer mInventoryvalidate.Enter(inv)()
	stock, ok := inv.Stock[item]
	if !ok {
		failatomic.Throw(failatomic.NoSuchElement, "Inventory.validate", "unknown item %q", item)
	}
	if stock < 0 {
		failatomic.Throw(failatomic.IllegalState, "Inventory.validate", "oversold %q", item)
	}
}

func main() {
	// Step 1: the Analyzer's knowledge — which methods exist, what they
	// throw.
	registry := failatomic.NewRegistry().
		Method("Inventory", "Reserve", failatomic.NoSuchElement, failatomic.IllegalState).
		Method("Inventory", "ReserveSafe", failatomic.IllegalArgument).
		Method("Inventory", "validate", failatomic.NoSuchElement, failatomic.IllegalState).
		Ctor("Inventory", "Inventory.New")

	// Steps 2-3: run the exception injection campaign over a test program.
	result, err := failatomic.Detect(context.Background(), &failatomic.Program{
		Name:     "quickstart",
		Registry: registry,
		Run: func() {
			inv := NewInventory()
			inv.Reserve("widget", 3)
			inv.ReserveSafe("gadget", 1)
			inv.Reserve("widget", 2)
		},
	}, failatomic.DetectOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("detection: %d injections over %d methods\n",
		result.Injections(), len(result.Methods))
	for _, name := range result.Names() {
		rep := result.Methods[name]
		fmt.Printf("  %-24s %v", name, rep.Classification)
		if rep.SampleDiff != "" {
			fmt.Printf("  (first difference: %s)", rep.SampleDiff)
		}
		fmt.Println()
	}

	// Steps 4-5: wrap the failure non-atomic methods with atomicity
	// wrappers and show the rollback in action.
	nonAtomic := result.NonAtomicMethods()
	fmt.Printf("\nmasking %v\n", nonAtomic)
	protection, err := failatomic.Protect(nonAtomic, failatomic.ProtectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer protection.Close()

	inv := NewInventory()
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Printf("caught: %v\n", failatomic.ExceptionFrom(r))
			}
		}()
		inv.Reserve("nonexistent", 5) // throws after mutating
	}()
	fmt.Printf("after masked failure: stock=%v reserved=%d (consistent!)\n",
		inv.Stock, inv.Reserved)
	fmt.Printf("rollbacks performed: %d\n", protection.Rollbacks())
}
