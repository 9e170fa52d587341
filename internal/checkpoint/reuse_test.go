package checkpoint

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"failatomic/internal/objgraph"
	"failatomic/internal/typeplan"
)

// Slice headers: a rollback reinstates each view of a backing array with
// its own length and capacity, and an empty slice with its backing array.

func TestRestoreSliceViewCapacities(t *testing.T) {
	type views struct {
		A, B []int
	}
	buf := make([]int, 3, 10)
	h := &views{A: buf, B: buf[:3:3]}
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.B = nil
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if cap(h.A) != 10 || cap(h.B) != 3 {
		t.Fatalf("caps after restore: A=%d B=%d, want 10 and 3", cap(h.A), cap(h.B))
	}
	if &h.A[0] != &buf[0] || &h.B[0] != &buf[0] {
		t.Fatal("views must share the original backing array after restore")
	}
	// With its capacity back at 3, appending to B reallocates instead of
	// writing into A's spare capacity.
	_ = append(h.B, 99)
	if buf[:4][3] == 99 {
		t.Fatal("append to the restored B wrote into A's backing array")
	}
}

func TestRestoreEmptySliceKeepsBacking(t *testing.T) {
	type holder struct {
		S []int
	}
	h := &holder{S: make([]int, 0, 8)}
	backing := h.S[:1]
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	h.S = append(h.S, 1)
	if err := cp.Restore(); err != nil {
		t.Fatal(err)
	}
	if h.S == nil || len(h.S) != 0 || cap(h.S) != 8 {
		t.Fatalf("restored empty slice: nil=%v len=%d cap=%d, want len 0 cap 8", h.S == nil, len(h.S), cap(h.S))
	}
	if &h.S[:1][0] != &backing[0] {
		t.Fatal("restored empty slice lost its backing array")
	}
}

// slabHolder carries a flat slice large enough to be a reusable slab.
type slabHolder struct {
	Data []byte
	Tag  int
}

func newSlabHolder() *slabHolder {
	h := &slabHolder{Data: make([]byte, 2*minSlabBytes), Tag: 1}
	for i := range h.Data {
		h.Data[i] = byte(i)
	}
	return h
}

func scribble(h *slabHolder, b byte) {
	for i := range h.Data {
		h.Data[i] = b
	}
	h.Tag++
}

func TestReuseCommitThenCaptureRollsBackExactly(t *testing.T) {
	d := New()
	h := newSlabHolder()
	first, err := d.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	scribble(h, 0xAA)
	slabPtr := first.(*Checkpoint).slabs[0].v.Pointer()
	first.(Committer).Commit()
	before := objgraph.Capture(h)
	// The second capture reuses the committed slab, which still holds
	// the first capture's copy; every byte must be overwritten.
	second, err := d.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.(*Checkpoint).slabs; len(got) != 1 || got[0].v.Pointer() != slabPtr {
		t.Fatal("second capture did not reuse the committed slab")
	}
	scribble(h, 0x55)
	if err := second.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(h)); d != "" {
		t.Fatalf("rollback after reuse: %s", d)
	}
}

func TestReuseNestedInnerCommitOuterRollback(t *testing.T) {
	d := New()
	h := newSlabHolder()
	before := objgraph.Capture(h)
	outer, err := d.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	scribble(h, 1)
	inner, err := d.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	scribble(h, 2)
	inner.(Committer).Commit()
	// A capture after the inner commit takes the inner slab, never the
	// outer one, which is still open.
	other, err := d.Capture(newSlabHolder())
	if err != nil {
		t.Fatal(err)
	}
	scribble(h, 3)
	if err := outer.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(h)); d != "" {
		t.Fatalf("outer rollback after inner commit: %s", d)
	}
	other.(Committer).Commit()
}

// TestRollbackAfterCommitFails: a committed checkpoint refuses rollback
// with errCommitted and writes nothing, whatever roots it was taken over.
func TestRollbackAfterCommitFails(t *testing.T) {
	d := New()
	slab, mixedSlab := newSlabHolder(), newSlabHolder()
	logged, mixed := &journaledCounter{Value: 1}, &journaledCounter{Value: 1}
	for _, tc := range []struct {
		name  string
		s     Strategy
		roots []any
		write func()
	}{
		{"deepcopy", d, []any{slab}, func() { scribble(slab, 7) }},
		{"undolog", New(), []any{logged}, func() { logged.Set(5) }},
		{"mixed", New(), []any{mixedSlab, mixed}, func() { scribble(mixedSlab, 7); mixed.Set(5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := tc.s.Capture(tc.roots...)
			if err != nil {
				t.Fatal(err)
			}
			tc.write()
			cp.(Committer).Commit()
			cp.(Committer).Commit() // idempotent: must not hand a slab or record back twice
			after := objgraph.Capture(tc.roots...)
			if err := cp.Rollback(); !errors.Is(err, errCommitted) {
				t.Fatalf("rollback after commit = %v, want errCommitted", err)
			}
			if ck, ok := cp.(*Checkpoint); ok {
				if err := ck.Restore(); err == nil {
					t.Fatal("restore after commit must fail")
				}
			}
			if d := objgraph.Diff(after, objgraph.Capture(tc.roots...)); d != "" {
				t.Fatalf("failed rollback wrote: %s", d)
			}
		})
	}
	if n := len(d.(*deepCopy).slabs); n != 1 {
		t.Fatalf("free list holds %d slabs after a double commit, want 1", n)
	}
}

// TestRollbackReleases: a rolled-back deep copy hands its slab and
// bookkeeping back once, for the next capture to take. Restore and a
// second Rollback then fail and write nothing, and Commit does nothing.
func TestRollbackReleases(t *testing.T) {
	d := New()
	free := d.(*deepCopy)
	h := newSlabHolder()
	before := objgraph.Capture(h)
	cp, err := d.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	ck := cp.(*Checkpoint)
	sc, slabPtr := ck.scratch, ck.slabs[0].v.Pointer()
	scribble(h, 0xAA)
	if err := cp.Rollback(); err != nil {
		t.Fatal(err)
	}
	if d := objgraph.Diff(before, objgraph.Capture(h)); d != "" {
		t.Fatalf("rollback: %s", d)
	}
	ck.Commit()
	if len(free.slabs) != 1 || len(free.scratch) != 1 {
		t.Fatalf("free lists hold %d slabs and %d scratches after rollback and commit, want 1 and 1",
			len(free.slabs), len(free.scratch))
	}
	scribble(h, 0x55)
	after := objgraph.Capture(h)
	if err := ck.Restore(); !errors.Is(err, errRolledBack) {
		t.Fatalf("restore after rollback = %v, want errRolledBack", err)
	}
	if err := cp.Rollback(); !errors.Is(err, errRolledBack) {
		t.Fatalf("second rollback = %v, want errRolledBack", err)
	}
	if d := objgraph.Diff(after, objgraph.Capture(h)); d != "" {
		t.Fatalf("failed restore wrote: %s", d)
	}
	next, err := d.Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	if n := next.(*Checkpoint); n.scratch != sc || len(n.slabs) != 1 || n.slabs[0].v.Pointer() != slabPtr {
		t.Fatal("the capture after a rollback did not reuse its scratch and slab")
	}
}

func TestPackageCaptureDoesNotReuse(t *testing.T) {
	h := newSlabHolder()
	cp, err := Capture(h)
	if err != nil {
		t.Fatal(err)
	}
	if cp.owner != nil || len(cp.slabs) != 0 {
		t.Fatal("the package-level Capture must not take slabs")
	}
	cp.Commit()
	if err := cp.Restore(); err == nil {
		t.Fatal("restore after commit must fail")
	}
}

// TestSharedStrategyConcurrent shares one strategy between goroutines.
// Half of the goroutines also journal a root of their own. Run it under
// -race.
func TestSharedStrategyConcurrent(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h, c := newSlabHolder(), &journaledCounter{}
			roots := []any{h}
			if w%2 == 1 {
				roots = append(roots, c)
			}
			for i := 0; i < 50; i++ {
				before := objgraph.Capture(roots...)
				cp, err := s.Capture(roots...)
				if err != nil {
					errs <- err
					return
				}
				scribble(h, byte(w+i))
				if w%2 == 1 {
					c.Set(i + 1)
				}
				if i%3 == 0 {
					if err := cp.Rollback(); err != nil {
						errs <- err
						return
					}
					if d := objgraph.Diff(before, objgraph.Capture(roots...)); d != "" {
						errs <- fmt.Errorf("worker %d call %d: %s", w, i, d)
						return
					}
				}
				cp.(Committer).Commit()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFreeListBounded commits more slabs than the free list keeps.
func TestFreeListBounded(t *testing.T) {
	d := &deepCopy{}
	var open []Handle
	for i := 0; i < 2*maxFreeSlabs; i++ {
		h, err := d.Capture(newSlabHolder())
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, h)
	}
	for _, h := range open {
		h.(Committer).Commit()
	}
	if len(d.slabs) != maxFreeSlabs || len(d.scratch) > maxFreeScratch {
		t.Fatalf("free lists hold %d slabs and %d scratches, bounds %d and %d",
			len(d.slabs), len(d.scratch), maxFreeSlabs, maxFreeScratch)
	}
}

// BenchmarkSlabCutoff compares, per flat slice size, allocating a clone
// slice with reflect.MakeSlice against a round trip through a strategy's
// slab free list (take, fill, release); see minSlabBytes.
func BenchmarkSlabCutoff(b *testing.B) {
	p := typeplan.For(reflect.TypeOf([]byte(nil)))
	for _, size := range []int{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		src := reflect.ValueOf(make([]byte, size))
		b.Run(fmt.Sprintf("make/size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reflect.Copy(reflect.MakeSlice(p.Type, size, size), src)
			}
		})
		b.Run(fmt.Sprintf("reuse/size=%d", size), func(b *testing.B) {
			d := &deepCopy{}
			sc := d.takeScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := d.takeSlab(p, size)
				if s.plan == nil {
					s = slab{plan: p, v: reflect.MakeSlice(p.Type, size, size), bytes: size}
				}
				reflect.Copy(s.v, src)
				sc.slabs = append(sc.slabs, s)
				d.recycle(sc)
				sc = d.takeScratch()
			}
		})
	}
}
