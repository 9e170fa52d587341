package checkpoint

import (
	"errors"
	"fmt"
	"reflect"

	"failatomic/internal/typeplan"
)

// errCommitted and errRolledBack report a restore of a released
// checkpoint: a deep copy's clone may already be reused by a later
// capture, and a committed journal's undo records have been handed to the
// enclosing journal.
var (
	errCommitted  = errors.New("checkpoint: restore after commit")
	errRolledBack = errors.New("checkpoint: restore after rollback")
)

// Rollback implements Handle: it restores the checkpointed state and then
// releases the checkpoint as Commit does. A rolled-back checkpoint cannot
// be restored again, and Commit on it does nothing. A rollback whose
// Restore failed leaves the checkpoint open.
func (c *Checkpoint) Rollback() error {
	if err := c.Restore(); err != nil {
		return err
	}
	c.release(errRolledBack)
	return nil
}

// Commit implements Committer: the checkpointed call returned normally,
// so the clone is dead. A committed checkpoint cannot be restored; Commit
// is idempotent.
func (c *Checkpoint) Commit() { c.release(errCommitted) }

// release closes the checkpoint for the given reason. Its clone objects,
// its large flat slices and its bookkeeping go back to the strategy that
// captured it, for later captures to reuse.
func (c *Checkpoint) release(why error) {
	if c.released != nil {
		return
	}
	c.released = why
	if c.owner != nil {
		c.owner.recycle(c.scratch)
	}
	c.scratch, c.blobs = nil, nil
}

// Restore reinstates the checkpointed state in place (the paper's
// replace(this, objgraph), Listing 2). Objects that existed at capture time
// get their old contents written back through their original pointers, so
// aliases held elsewhere in the program observe the rollback; objects the
// failed method allocated become garbage (the paper needed reference
// counting for this; Go's GC covers it, cycles included). Restore can run
// any number of times until the checkpoint is committed or rolled back.
func (c *Checkpoint) Restore() error {
	if c.released != nil {
		return c.released
	}
	// Restore is the rare path (an exception unwound the call), so the
	// clones are numbered here rather than during capture.
	if c.clones == nil {
		c.clones = new(typeplan.RefTable)
	}
	c.clones.Reset()
	for i := range c.refs {
		intern(c.clones, c.refs[i].clone, c.refs[i].plan)
	}
	c.visited = append(c.visited[:0], make([]bool, len(c.refs))...)
	for _, root := range c.roots {
		if _, err := c.materialize(root.clone, root.plan); err != nil {
			return err
		}
	}
	return nil
}

// find returns the refs index of the clone reference v, and whether
// this pass meets it for the first time.
func (c *Checkpoint) find(v reflect.Value, p *typeplan.Plan) (int, bool, error) {
	id, ok := intern(c.clones, v, p)
	if !ok {
		return 0, false, &UnsupportedError{
			Type: p.TypeStr,
			Why:  fmt.Sprintf("clone %s %#x has no original", p.Kind, v.Pointer()),
		}
	}
	i := id - 1
	first := !c.visited[i]
	c.visited[i] = true
	return i, first, nil
}

// restoreInto writes the clone's contents into dst (an original, settable
// location), mapping interior clone references back to the originals.
func (c *Checkpoint) restoreInto(dst, src reflect.Value, p *typeplan.Plan) error {
	switch {
	case p.Leaf:
		dst.Set(src)
	case p.Kind == reflect.Struct:
		for _, f := range p.Fields {
			// Capture cloned only the exported fields; any other is
			// zero-size.
			if !f.Exported {
				continue
			}
			if err := c.restoreInto(dst.Field(f.Index), src.Field(f.Index), f.Plan); err != nil {
				return err
			}
		}
	case p.Kind == reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			if err := c.restoreInto(dst.Index(i), src.Index(i), p.Elem); err != nil {
				return err
			}
		}
	default:
		m, err := c.materialize(src, p)
		if err != nil {
			return err
		}
		dst.Set(m)
	}
	return nil
}

// materialize converts a clone value into the value to install in an
// original location: original pointers for cloned pointees (restoring their
// contents once), the original map (cleared and refilled) for cloned maps,
// and the original header and backing array for cloned slices.
func (c *Checkpoint) materialize(src reflect.Value, p *typeplan.Plan) (reflect.Value, error) {
	switch p.Kind {
	case reflect.Pointer:
		if src.IsNil() || (p.Elem.Empty && !p.Snap) {
			return src, nil
		}
		i, first, err := c.find(src, p)
		if err != nil {
			return reflect.Value{}, err
		}
		orig := c.refs[i].original()
		if blob, ok := c.blobs[i]; ok {
			// Snapshotter: clone == original pointer.
			if first {
				snap, sok := orig.Interface().(Snapshotter)
				if !sok {
					return reflect.Value{}, &UnsupportedError{Type: p.TypeStr, Why: "Snapshotter assertion failed at restore"}
				}
				snap.RestoreState(blob)
			}
			return orig, nil
		}
		if first {
			if err := c.restoreInto(orig.Elem(), src.Elem(), p.Elem); err != nil {
				return reflect.Value{}, err
			}
		}
		return orig, nil
	case reflect.Slice:
		if src.IsNil() || src.Len() == 0 || p.Elem.Empty {
			// The clone is the original header (cloneSlice).
			return src, nil
		}
		i, first, err := c.find(src, p)
		if err != nil {
			return reflect.Value{}, err
		}
		orig := c.refs[i].original()
		if !first {
			return orig, nil
		}
		if p.Bulk {
			reflect.Copy(orig, src)
			return orig, nil
		}
		for j := 0; j < src.Len(); j++ {
			if err := c.restoreInto(orig.Index(j), src.Index(j), p.Elem); err != nil {
				return reflect.Value{}, err
			}
		}
		return orig, nil
	case reflect.Map:
		if src.IsNil() {
			return src, nil
		}
		i, first, err := c.find(src, p)
		if err != nil {
			return reflect.Value{}, err
		}
		orig := c.refs[i].original()
		if !first {
			return orig, nil
		}
		// Clear the original map in place so external aliases observe the
		// rollback, then refill from the clone.
		orig.Clear()
		iter := src.MapRange()
		for iter.Next() {
			k, err := c.materialize(iter.Key(), p.Key)
			if err != nil {
				return reflect.Value{}, err
			}
			v, err := c.materialize(iter.Value(), p.Elem)
			if err != nil {
				return reflect.Value{}, err
			}
			orig.SetMapIndex(k, v)
		}
		return orig, nil
	case reflect.Interface:
		if src.IsNil() {
			return src, nil
		}
		inner := src.Elem()
		ip := typeplan.For(inner.Type())
		if ip.Leaf {
			return src, nil
		}
		// Set and SetMapIndex box the materialized value into the
		// location's interface type.
		return c.materialize(inner, ip)
	case reflect.Struct, reflect.Array:
		if p.Flat {
			return src, nil
		}
		// Composite values inside map entries and interfaces are not
		// addressable: rebuild them.
		fresh := reflect.New(p.Type).Elem()
		if err := c.restoreInto(fresh, src, p); err != nil {
			return reflect.Value{}, err
		}
		return fresh, nil
	default:
		return src, nil
	}
}
