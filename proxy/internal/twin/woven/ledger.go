package woven

import "failatomic"

// Ledger records postings against a limit. Every method is exported, so
// a proxy reaches each one, and none calls another, so a proxy sees every
// call a woven prologue sees.
type Ledger struct {
	Balance int
	Limit   int
	Entries []string
}

// Post adds amount and records memo. It commits the amount before it
// checks the limit, so a rejected posting leaves the balance raised:
// failure non-atomic.
func (l *Ledger) Post(amount int, memo string) int {
	defer failatomic.Enter(l, "Ledger.Post")()
	l.Balance += amount
	if l.Balance > l.Limit {
		failatomic.Throw(failatomic.IllegalState, "Ledger.Post", "limit %d exceeded", l.Limit)
	}
	l.Entries = append(l.Entries, memo)
	return l.Balance
}

// Raise lifts the limit by a positive amount. It validates first:
// failure atomic.
func (l *Ledger) Raise(by int) {
	defer failatomic.Enter(l, "Ledger.Raise")()
	if by <= 0 {
		failatomic.Throw(failatomic.IllegalArgument, "Ledger.Raise", "bad raise %d", by)
	}
	l.Limit += by
}

// Total returns the balance.
func (l *Ledger) Total() int {
	defer failatomic.Enter(l, "Ledger.Total")()
	return l.Balance
}
