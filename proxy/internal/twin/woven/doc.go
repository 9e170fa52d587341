// Package woven is the instrumented half of a twin pair: ledger.go is
// package plain's ledger.go as faweave weaves it, with only the package
// clause changed, so its methods are called directly.
package woven
