package core

import (
	"reflect"
	"testing"

	"failatomic/internal/fault"
)

// everyNth fires at every n-th global point: a multi-fire trigger, so one
// run records marks from several exceptional unwinds.
type everyNth int

func (n everyNth) ShouldFire(point int, _ string, _ fault.Kind, _ int) bool {
	return point%int(n) == 0
}

// diffWorkload mixes non-atomic (Deposit) and atomic (DepositSafe) calls,
// each unwinding through the nested log wrapper.
func diffWorkload() *account {
	a := &account{Balance: 1}
	for i := 0; i < 4; i++ {
		catchPanic(func() { a.Deposit(i) })
		catchPanic(func() { a.DepositSafe(i) })
	}
	return a
}

type diffObservation struct {
	marks   []Mark
	calls   []CallID
	points  int
	counts  map[string]int64
	account account
}

func observe(t *testing.T, cfg Config) diffObservation {
	t.Helper()
	var obs diffObservation
	withSession(t, cfg, func(s *Session) {
		a := diffWorkload()
		obs = diffObservation{
			marks:   s.Marks(),
			calls:   s.AppendMarkCalls(nil),
			points:  s.Point(),
			counts:  s.Calls(),
			account: *a,
		}
	})
	return obs
}

// TestDiffCallsSnapshotsOnlyListedCalls: a session restricted by
// Config.DiffCalls marks exactly the listed calls, with the Seq, verdict
// and diff an unrestricted capture session gives them, and leaves control
// flow (points, call counts, the workload's final state) untouched —
// including when ExitFire raises in the epilogue and when Oblivious
// swallows at the nearest wrapper, where skipping an unlisted call's exit
// handler would shift both.
func TestDiffCallsSnapshotsOnlyListedCalls(t *testing.T) {
	reg := NewRegistry().Method("account", "Deposit", fault.IllegalArgument)
	cases := map[string]Config{
		"trigger":   {Trigger: everyNth(4)},
		"oblivious": {Trigger: everyNth(4), Oblivious: true},
		"exitfire": {ExitFire: func(m string, c int64) (fault.Kind, bool) {
			return fault.RuntimeError, m == "account.log" && c%3 == 2
		}},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg.Registry = reg
			cfg.Inject = true
			cfg.Detect = true
			cfg.Snapshot = SnapshotCapture
			full := observe(t, cfg)
			if len(full.marks) < 4 {
				t.Fatalf("workload recorded %d marks; want several to select from", len(full.marks))
			}
			if len(full.calls) != len(full.marks) {
				t.Fatalf("MarkCalls has %d entries for %d marks", len(full.calls), len(full.marks))
			}

			// List every other marked call, plus a call that never marks.
			cfg.DiffCalls = map[CallID]bool{{Method: "account.log", Call: 1 << 20}: true}
			var wantMarks []Mark
			var wantCalls []CallID
			for i := 0; i < len(full.marks); i += 2 {
				cfg.DiffCalls[full.calls[i]] = true
				wantMarks = append(wantMarks, full.marks[i])
				wantCalls = append(wantCalls, full.calls[i])
			}
			got := observe(t, cfg)
			if !reflect.DeepEqual(got.marks, wantMarks) {
				t.Fatalf("targeted marks differ:\n got %+v\nwant %+v", got.marks, wantMarks)
			}
			if !reflect.DeepEqual(got.calls, wantCalls) {
				t.Fatalf("targeted mark calls = %v, want %v", got.calls, wantCalls)
			}
			if got.points != full.points || !reflect.DeepEqual(got.counts, full.counts) ||
				!reflect.DeepEqual(got.account, full.account) {
				t.Fatalf("targeted session changed control flow: points %d vs %d, calls %v vs %v, state %+v vs %+v",
					got.points, full.points, got.counts, full.counts, got.account, full.account)
			}

			// An empty (non-nil) list snapshots nothing but still runs.
			cfg.DiffCalls = map[CallID]bool{}
			none := observe(t, cfg)
			if len(none.marks) != 0 || none.points != full.points || !reflect.DeepEqual(none.account, full.account) {
				t.Fatalf("empty DiffCalls: %d marks, points %d vs %d", len(none.marks), none.points, full.points)
			}
		})
	}
}

// TestMarkCallsIdentifyFingerprintMarks: fingerprint sessions record the
// same call identities as capture sessions — the key diff recovery
// matches replayed marks on.
func TestMarkCallsIdentifyFingerprintMarks(t *testing.T) {
	cfg := Config{Inject: true, Trigger: everyNth(3), Detect: true}
	fp := observe(t, cfg)
	cfg.Snapshot = SnapshotCapture
	capture := observe(t, cfg)
	if len(fp.calls) == 0 || !reflect.DeepEqual(fp.calls, capture.calls) {
		t.Fatalf("fingerprint mark calls %v, capture %v", fp.calls, capture.calls)
	}
}
