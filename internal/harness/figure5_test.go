package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"failatomic/internal/core"
)

func tinyFigure5Config() Figure5Config {
	return Figure5Config{
		Sizes:    []int{64, 16 << 10},
		FracsPct: []float64{0, 10, 100},
		Calls:    300,
		Runs:     5,
	}
}

func TestFigure5Shape(t *testing.T) {
	points, err := Figure5(context.Background(), tinyFigure5Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	grid := make(map[[2]int]OverheadPoint)
	for _, p := range points {
		grid[[2]int{p.ObjectBytes, int(p.MaskedPct)}] = p
		if p.BaseNs <= 0 || p.MaskedNs <= 0 {
			t.Fatalf("degenerate timing: %+v", p)
		}
	}
	// The paper's shape: overhead grows with the masked-call fraction...
	if grid[[2]int{16 << 10, 100}].Overhead <= grid[[2]int{16 << 10, 10}].Overhead {
		t.Errorf("overhead must grow with masked fraction: %+v vs %+v",
			grid[[2]int{16 << 10, 100}], grid[[2]int{16 << 10, 10}])
	}
	// ...and with the checkpointed object size.
	if grid[[2]int{16 << 10, 100}].Overhead <= grid[[2]int{64, 100}].Overhead {
		t.Errorf("overhead must grow with object size: %+v vs %+v",
			grid[[2]int{16 << 10, 100}], grid[[2]int{64, 100}])
	}
	// Checkpoint size accounting must scale with the object.
	if grid[[2]int{16 << 10, 100}].CheckpointBytes < 16<<10 {
		t.Errorf("checkpoint bytes %d < object size", grid[[2]int{16 << 10, 100}].CheckpointBytes)
	}
}

func TestFigure5JournalStaysFlat(t *testing.T) {
	points, err := Figure5Journal(context.Background(), tinyFigure5Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		// Undo-log overhead is O(bytes written), independent of object
		// size; allow generous noise headroom.
		if p.Overhead > 4 {
			t.Errorf("journal overhead %.2f at %dB/%g%% — should stay near 1",
				p.Overhead, p.ObjectBytes, p.MaskedPct)
		}
	}
}

func TestFigure5BadConfig(t *testing.T) {
	if _, err := Figure5(context.Background(), Figure5Config{}); err == nil {
		t.Fatal("empty config must be rejected")
	}
	if _, err := Figure5Journal(context.Background(), Figure5Config{}); err == nil {
		t.Fatal("empty config must be rejected")
	}
}

// TestFigure5Cancelled: both sweeps stop before their first row on a
// cancelled context, report the cancellation and return no points.
func TestFigure5Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, sweep := range map[string]func(context.Context, Figure5Config) ([]OverheadPoint, error){
		"Figure5":        Figure5,
		"Figure5Journal": Figure5Journal,
	} {
		points, err := sweep(ctx, tinyFigure5Config())
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if len(points) != 0 {
			t.Errorf("%s: %d points after cancellation, want none", name, len(points))
		}
	}
}

func TestRenderFigure5(t *testing.T) {
	points, err := Figure5(context.Background(), Figure5Config{
		Sizes:    []int{64},
		FracsPct: []float64{0, 100},
		Calls:    100,
		Runs:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderFigure5(points)
	if !strings.Contains(out, "64B") || !strings.Contains(out, "100%") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestBenchTargetRollbackPath(t *testing.T) {
	session := core.NewSession(core.Config{
		Mask:    true,
		MaskAll: true,
	})
	if err := core.Install(session); err != nil {
		t.Fatal(err)
	}
	defer core.Uninstall(session)

	target := NewBenchTarget(256)
	before := target.P.Meta[0]
	func() {
		defer func() { _ = recover() }()
		target.WorkThrowing()
	}()
	if target.P.Meta[0] != before {
		t.Fatal("masking must roll back the throwing method's mutation")
	}
	if session.Rollbacks() != 1 {
		t.Fatalf("rollbacks = %d, want 1", session.Rollbacks())
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median wrong")
	}
	if median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median wrong")
	}
}

func TestByteSize(t *testing.T) {
	tests := []struct {
		give int
		want string
	}{
		{give: 64, want: "64B"},
		{give: 2048, want: "2KiB"},
		{give: 2 << 20, want: "2MiB"},
	}
	for _, tt := range tests {
		if got := byteSize(tt.give); got != tt.want {
			t.Errorf("byteSize(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}
