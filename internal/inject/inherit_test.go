package inject

import (
	"context"
	"reflect"
	"testing"
)

// TestChildGoroutinesInheritBinding: a run's session binding follows the
// goroutines its workload spawns, so a Serialize campaign whose workload
// makes its wrapped calls on a child goroutine — forwarding its panic and
// joining it — records exactly the runs of the same workload run inline,
// at any Parallelism.
func TestChildGoroutinesInheritBinding(t *testing.T) {
	inline := testProgram()
	body := inline.Run
	child := testProgram()
	child.Run = func() {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			body()
		}()
		if r := <-done; r != nil {
			panic(r)
		}
	}
	for _, workers := range []int{1, 4} {
		opts := Options{Serialize: true, Parallelism: workers}
		want, err := Campaign(context.Background(), inline, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Campaign(context.Background(), child, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalPoints == 0 || got.Injections != want.Injections {
			t.Fatalf("workers=%d: child workload sized %d points, %d injections; inline %d, %d",
				workers, got.TotalPoints, got.Injections, want.TotalPoints, want.Injections)
		}
		if !reflect.DeepEqual(got.Runs, want.Runs) {
			t.Fatalf("workers=%d: child-goroutine runs differ from the inline workload's", workers)
		}
	}
}
