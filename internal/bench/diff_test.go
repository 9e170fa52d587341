package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDiffSnapshots(t *testing.T) {
	baseline := []Result{
		{Name: "objgraph/fingerprint/size=64", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "campaign/RBMap/fingerprint", NsPerOp: 1000, AllocsPerOp: 42},
		{Name: "retired/cell", NsPerOp: 5, AllocsPerOp: 1},
	}
	fresh := []Result{
		// Within tolerance: 20% slower is fine.
		{Name: "objgraph/fingerprint/size=64", NsPerOp: 120, AllocsPerOp: 0},
		// Ns regression past 25% AND an alloc change: two violations.
		{Name: "campaign/RBMap/fingerprint", NsPerOp: 1500, AllocsPerOp: 43},
		// New cell absent from the baseline: ignored.
		{Name: "objgraph/new-cell/size=64", NsPerOp: 999, AllocsPerOp: 7},
	}
	got := DiffSnapshots(baseline, fresh)
	if len(got) != 2 {
		t.Fatalf("DiffSnapshots = %v, want exactly 2 violations", got)
	}
	if !strings.Contains(got[0], "ns/op regressed 1000 -> 1500") {
		t.Errorf("ns violation = %q", got[0])
	}
	if !strings.Contains(got[1], "allocs/op changed 42 -> 43") {
		t.Errorf("alloc violation = %q", got[1])
	}

	if v := DiffSnapshots(baseline, baseline); len(v) != 0 {
		t.Errorf("self-diff reported violations: %v", v)
	}
	// Parallel campaign cells jitter by a few allocs (worker scheduling):
	// exempt from the exact-allocs rule, still gated on ns/op.
	pbase := []Result{{Name: "campaign-parallel/RBMap/workers=4", NsPerOp: 1000, AllocsPerOp: 771892}}
	if v := DiffSnapshots(pbase, []Result{{Name: "campaign-parallel/RBMap/workers=4", NsPerOp: 1100, AllocsPerOp: 771893}}); len(v) != 0 {
		t.Errorf("parallel alloc jitter flagged: %v", v)
	}
	if v := DiffSnapshots(pbase, []Result{{Name: "campaign-parallel/RBMap/workers=4", NsPerOp: 2000, AllocsPerOp: 771892}}); len(v) != 1 {
		t.Errorf("parallel ns regression not flagged: %v", v)
	}
	if v := DiffSnapshots(nil, fresh); len(v) != 0 {
		t.Errorf("empty baseline reported violations: %v", v)
	}
}

func TestReadJSONRoundTrip(t *testing.T) {
	results := []Result{{Name: "a/b", N: 10, NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 64}}
	data, err := WriteJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != results[0] {
		t.Fatalf("round trip = %+v, want %+v", got, results)
	}
	if _, err := ReadJSON(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadJSON must fail on a missing file")
	}
}
