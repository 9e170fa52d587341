// Package plain is the uninstrumented half of a twin pair: ledger.go
// carries no prologues, so its methods are reached through proxies. Its
// twin, package woven, is the same file woven by faweave.
package plain
