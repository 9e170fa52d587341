// Package cli holds the conventions the failatomic command-line tools
// share: process exit codes and the quarantine summary block.
package cli

import (
	"fmt"
	"strings"

	"failatomic/internal/inject"
)

// Exit codes shared by fadetect and fabench. A campaign that completes
// but quarantines points is distinguishable from an outright failure so
// scripted evaluations can tell "rerun with a bigger timeout" apart from
// "the harness is broken".
const (
	// ExitOK: every campaign completed with nothing quarantined.
	ExitOK = 0
	// ExitFailure: a campaign (or the tool itself) failed — including
	// interruption by SIGINT/SIGTERM.
	ExitFailure = 1
	// ExitQuarantined: all campaigns completed, but at least one injection
	// point was quarantined (hung or crashed after retries); its methods
	// were classified conservatively.
	ExitQuarantined = 2
	// ExitDrift: fareport -diff-against found the fresh classification
	// diverging from the golden one — the regression gate tripped.
	ExitDrift = 3
)

// RenderQuarantine formats the quarantine summary for one program: one
// line per run, named by its RunKey ("point N" in the default sweep,
// e.g. "concur[2,0]#2" for a schedule), with its kind, retry count and
// last error.
func RenderQuarantine(program string, qs []inject.Quarantine) string {
	if len(qs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "QUARANTINED (%s): %d injection point(s) excluded from classification\n", program, len(qs))
	for _, q := range qs {
		kind := string(q.Kind)
		if kind == "" {
			kind = "-"
		}
		fmt.Fprintf(&b, "  %-12s %-13s kind=%-14s retries=%d  %s\n",
			q.Key(), q.Status, kind, q.Retries, q.Err)
	}
	return b.String()
}
