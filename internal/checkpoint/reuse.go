package checkpoint

import (
	"reflect"
	"slices"
	"sync"

	"failatomic/internal/typeplan"
)

// Reuse of released copies. A masked call that returns normally commits
// its checkpoint, and one that unwinds rolls it back; either way the clone
// is dead from then on (a rollback has written it back already): its
// large flat slices (the bulk of a large object's copy), its other clone
// objects and its bookkeeping go back to the strategy that captured it,
// and the strategy's next captures fill them again instead of allocating.

// New returns the checkpoint strategy, which picks per root. A root that
// implements Journaled gets an undo journal, proportional to what the
// call writes; the other roots share one eager deep copy (Listing 2) and
// its alias table. Each call returns a new strategy with its own free
// lists; one strategy value is safe for concurrent use.
func New() Strategy { return &deepCopy{} }

// Free-list bounds. A flat clone slice is a slab, reused across commits,
// only above the allocator's small-object limit (32 KiB): a larger clone
// is allocated from the page heap, zeroed, and handed back to the OS by
// the scavenger once collected, which is what a masked call on a large
// object pays for. A free-list round trip already beats a fresh small
// slice from about 256 B (BenchmarkSlabCutoff), but reusing those makes a
// masked call's cost nearly independent of the object's size below
// 32 KiB, flatter than Figure 5's shape check can resolve. The slab list
// keeps at most maxFreeSlabs slices and maxFreeBytes bytes, the scratch
// list at most maxFreeScratch entries of at most maxScratchRefs
// references; what does not fit is dropped.
const (
	minSlabBytes   = 32<<10 + 1
	maxFreeSlabs   = 16
	maxFreeBytes   = 4 << 20
	maxFreeScratch = 8
	maxScratchRefs = 4 << 10
)

// deepCopy is New's strategy and the owner of its deep copies' free lists,
// bounded LIFOs of what released checkpoints handed back. Unlike a
// sync.Pool their contents change only on capture, commit and rollback,
// so what a sequence of calls allocates does not depend on when the GC
// runs.
type deepCopy struct {
	mu        sync.Mutex
	slabs     []slab
	slabBytes int
	scratch   []*scratch
}

// slab is a flat clone slice at its full length.
type slab struct {
	plan  *typeplan.Plan
	v     reflect.Value
	bytes int
}

// Capture deep-copies the roots when none is Journaled, as on the masked
// calls of every bundled application, and journals a lone Journaled
// root. Other calls take parts.
func (d *deepCopy) Capture(roots ...any) (Handle, error) {
	if !slices.ContainsFunc(roots, journaled) {
		c, err := capture(d, roots)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	if len(roots) == 1 {
		return beginJournal(roots[0].(Journaled)), nil
	}
	var p parts
	var rest []any
	for _, r := range roots {
		if journaled(r) {
			p = append(p, beginJournal(r.(Journaled)))
		} else {
			rest = append(rest, r)
		}
	}
	if len(rest) > 0 {
		c, err := capture(d, rest)
		if err != nil {
			p.Commit()
			return nil, err
		}
		p = append(p, c)
	}
	return p, nil
}

// journaled reports whether r is a Journaled root. A nil pointer is not
// one: the deep copy rejects it as a root.
func journaled(r any) bool {
	if _, ok := r.(Journaled); !ok {
		return false
	}
	v := reflect.ValueOf(r)
	return v.Kind() != reflect.Pointer || !v.IsNil()
}

// takeScratch returns the most recently recycled bookkeeping, or new
// bookkeeping when there is none (or no strategy: the package-level
// Capture).
func (d *deepCopy) takeScratch() *scratch {
	if d == nil {
		return new(scratch)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.scratch)
	if n == 0 {
		return new(scratch)
	}
	s := d.scratch[n-1]
	d.scratch[n-1] = nil
	d.scratch = d.scratch[:n-1]
	return s
}

// recycle takes back a released checkpoint's slabs and bookkeeping. The
// checkpoint's own clone objects become the scratch's spares, zeroed, so
// the free lists keep no original alive and a reused object is as fresh
// as a new one.
func (d *deepCopy) recycle(s *scratch) {
	keep := cap(s.refs) <= maxScratchRefs
	spares := s.spare[:0]
	if keep {
		for i := range s.refs {
			r := &s.refs[i]
			if !r.own {
				continue
			}
			if r.plan.Kind == reflect.Pointer {
				r.clone.Elem().SetZero()
			} else {
				r.clone.Clear()
			}
			spares = append(spares, spare{plan: r.plan, v: r.clone})
		}
	}
	if len(spares) < len(s.spare) {
		clear(s.spare[len(spares):])
	}
	clear(s.roots)
	clear(s.refs)
	s.origs.Reset()
	s.roots, s.refs, s.spare, s.next = s.roots[:0], s.refs[:0], spares, 0
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sl := range s.slabs {
		if len(d.slabs) == maxFreeSlabs || d.slabBytes+sl.bytes > maxFreeBytes {
			break
		}
		d.slabs = append(d.slabs, sl)
		d.slabBytes += sl.bytes
	}
	clear(s.slabs)
	s.slabs = s.slabs[:0]
	if keep && len(d.scratch) < maxFreeScratch {
		d.scratch = append(d.scratch, s)
	}
}

// takeSlab returns a free slab of slice type p holding n to 2n elements,
// most recently released first, or the zero slab.
func (d *deepCopy) takeSlab(p *typeplan.Plan, n int) slab {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := len(d.slabs) - 1; i >= 0; i-- {
		s := d.slabs[i]
		if s.plan != p || s.v.Len() < n || s.v.Len() > 2*n {
			continue
		}
		d.slabs = append(d.slabs[:i], d.slabs[i+1:]...)
		d.slabBytes -= s.bytes
		return s
	}
	return slab{}
}

// spare is a zeroed clone object kept for reuse: a pointer to a fresh
// pointee, or a slice of exactly its length. Maps are not kept: a cleared
// map holds on to its buckets.
type spare struct {
	plan *typeplan.Plan
	v    reflect.Value
}

// alloc returns a zero clone object for the pointer or slice (n elements)
// plan p: the next spare when it has that plan (and length), else a new
// one.
func (c *Checkpoint) alloc(p *typeplan.Plan, n int) reflect.Value {
	if c.next < len(c.spare) {
		if s := c.spare[c.next]; s.plan == p && (p.Kind != reflect.Slice || s.v.Len() == n) {
			c.spare[c.next] = spare{}
			c.next++
			return s.v
		}
	}
	if p.Kind == reflect.Pointer {
		return reflect.New(p.Elem.Type)
	}
	return reflect.MakeSlice(p.Type, n, n)
}

// makeSlice returns a slice of type p with n elements for cloneSlice to
// fill completely, and whether it is the checkpoint's own clone object (a
// spare once committed). Small slices of references are spares; flat
// slices are allocated fresh, or, when large, are slabs: they come from,
// and are recorded for return to, the owning strategy's free list. A large
// slice of references is allocated fresh, so no free list holds on to it.
func (c *Checkpoint) makeSlice(p *typeplan.Plan, n int) (reflect.Value, bool) {
	size := n * p.Elem.Size
	if !p.Elem.Flat && size < minSlabBytes {
		return c.alloc(p, n), true
	}
	if c.owner == nil || !p.Elem.Flat || size < minSlabBytes {
		return reflect.MakeSlice(p.Type, n, n), false
	}
	s := c.owner.takeSlab(p, n)
	if s.plan == nil {
		s = slab{plan: p, v: reflect.MakeSlice(p.Type, n, n), bytes: size}
	}
	c.slabs = append(c.slabs, s)
	if s.v.Len() == n {
		return s.v, false
	}
	return s.v.Slice3(0, n, n), false
}
