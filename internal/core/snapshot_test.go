package core

import "testing"

// TestDetectFingerprintVerdictsMatchCapture runs the same exceptional
// workload under both snapshot engines and requires identical Atomic
// verdicts; fingerprint marks carry no diff (the campaign driver recovers
// it by replay), capture marks always do when non-atomic.
func TestDetectFingerprintVerdictsMatchCapture(t *testing.T) {
	type observed struct {
		method string
		atomic bool
	}
	runMode := func(mode SnapshotMode) ([]observed, []Mark) {
		var marks []Mark
		withSession(t, Config{Inject: true, InjectionPoint: 4, Detect: true, Snapshot: mode}, func(s *Session) {
			a := &account{Balance: 1}
			if r := catchPanic(func() { a.Deposit(5) }); r == nil {
				t.Fatal("expected the injected exception to escape")
			}
			marks = s.Marks()
		})
		var out []observed
		for _, m := range marks {
			out = append(out, observed{m.Method, m.Atomic})
		}
		return out, marks
	}

	fpVerdicts, fpMarks := runMode(SnapshotFingerprint)
	capVerdicts, _ := runMode(SnapshotCapture)
	if len(fpVerdicts) == 0 {
		t.Fatal("no marks recorded")
	}
	if len(fpVerdicts) != len(capVerdicts) {
		t.Fatalf("mark counts differ: %d vs %d", len(fpVerdicts), len(capVerdicts))
	}
	for i := range fpVerdicts {
		if fpVerdicts[i] != capVerdicts[i] {
			t.Fatalf("verdict %d differs: fingerprint %+v vs capture %+v", i, fpVerdicts[i], capVerdicts[i])
		}
	}
	for _, m := range fpMarks {
		if m.Diff != "" {
			t.Fatalf("fingerprint mark %q carries a diff %q; diffs are the replay's job", m.Method, m.Diff)
		}
	}
}

// TestDetectFingerprintAtomicMethod checks the no-mutation side: a method
// that mutates nothing before the exception stays Atomic under
// fingerprints.
func TestDetectFingerprintAtomicMethod(t *testing.T) {
	withSession(t, Config{Inject: true, InjectionPoint: 4, Detect: true}, func(s *Session) {
		a := &account{Balance: 1}
		if r := catchPanic(func() { a.DepositSafe(5) }); r == nil {
			t.Fatal("expected the injected exception to escape")
		}
		for _, m := range s.Marks() {
			if m.Method == "account.DepositSafe" && !m.Atomic {
				t.Fatalf("DepositSafe must be atomic under fingerprints: %+v", m)
			}
		}
	})
}

// TestParseSnapshotMode pins the knob spellings, including the empty
// default that zero-valued job specs round-trip through.
func TestParseSnapshotMode(t *testing.T) {
	for in, want := range map[string]SnapshotMode{
		"":            SnapshotFingerprint,
		"fingerprint": SnapshotFingerprint,
		"capture":     SnapshotCapture,
	} {
		got, err := ParseSnapshotMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSnapshotMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "fingerprint-nocache"} {
		if _, err := ParseSnapshotMode(bad); err == nil {
			t.Fatalf("ParseSnapshotMode must reject %q", bad)
		}
	}
	if SnapshotFingerprint.String() != "fingerprint" || SnapshotCapture.String() != "capture" {
		t.Fatal("String() must match the knob spellings")
	}
}

// TestRootsScratchReuseAcrossNestedCalls exercises the per-session roots
// free-list under nesting: the wrapper's own snapshot must not clobber a
// pending outer call's roots, across repeated exceptional returns.
func TestRootsScratchReuseAcrossNestedCalls(t *testing.T) {
	type holder struct{ A *account }
	outer := func(h *holder) {
		defer Enter(h, "holder.outer")()
		h.A.Deposit(2) // nested wrapped call that throws via injection
	}
	// Point 6 is inside account.log's prologue (2 runtime points each for
	// outer, Deposit, log), so the exception unwinds through both wrapped
	// frames after Deposit already mutated Balance.
	withSession(t, Config{Inject: true, InjectionPoint: 6, Detect: true, Snapshot: SnapshotCapture}, func(s *Session) {
		h := &holder{A: &account{Balance: 1}}
		if r := catchPanic(func() { outer(h) }); r == nil {
			t.Fatal("expected the injected exception to escape")
		}
		if len(s.Marks()) < 2 {
			t.Fatalf("want marks for the nested and outer call, got %+v", s.Marks())
		}
		for _, m := range s.Marks() {
			if !m.Atomic && m.Diff == "" {
				t.Fatalf("capture-mode non-atomic mark lost its diff: %+v", m)
			}
		}
	})
	// Fingerprint mode over repeated calls: the free-list must recycle
	// without corrupting verdicts run over run.
	withSession(t, Config{Detect: true}, func(s *Session) {
		a := &account{}
		for i := 0; i < 16; i++ {
			a.Deposit(1)
		}
		if got := s.Calls()["account.Deposit"]; got != 16 {
			t.Fatalf("calls = %d, want 16", got)
		}
		if len(s.Marks()) != 0 {
			t.Fatalf("clean calls must record no marks: %+v", s.Marks())
		}
	})
}
