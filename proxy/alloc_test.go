package proxy

import (
	"runtime"
	"testing"
)

// counter is the dispatch subject of the allocation guard.
type counter struct{ N int }

func (c *counter) Inc(by int) int {
	c.N += by
	return c.N
}

// invokeAllocs and invokeBytes bound one Invoke("Inc", 1) with no session
// installed: 8 allocations and 240 B on linux/amd64 with go1.24. Before
// Invoke entered the session through handles resolved at Wrap, and found
// methods by reflect's MethodByName, the same call cost 12 and 376 B.
const invokeAllocs, invokeBytes = 8, 240

// TestInvokeAllocs guards the no-session cost of a proxied call: its
// handle and method index come from what Wrap resolved, so a call
// concatenates no name and builds no reflect.Method.
func TestInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime adds allocations; exact counts only hold without -race")
	}
	p, err := NewGenerator().Wrap(&counter{})
	if err != nil {
		t.Fatal(err)
	}
	invoke := func() {
		if _, err := p.Invoke("Inc", 1); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	invoke()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		invoke()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > invokeAllocs || bytes > invokeBytes {
		t.Fatalf("Invoke = %d allocs, %d B per call; want at most %d and %d B", allocs, bytes, invokeAllocs, invokeBytes)
	}
}
