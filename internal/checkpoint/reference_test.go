package checkpoint

// The reflective checkpoint engine that predates compiled plans, kept
// verbatim (renamed) as the reference the plan-driven engine is tested
// against: both must report the same Bytes for every graph, and the
// plan-driven engine must round-trip at least as exactly.

import (
	"fmt"
	"reflect"
)

var snapshotterType = reflect.TypeOf((*Snapshotter)(nil)).Elem()

// refOldKey identifies a reference for the clone memo and the reverse
// (clone→original) map used by in-place restore.
type refOldKey struct {
	ptr uintptr
	typ reflect.Type
	aux int
}

// refCheckpoint is the reference engine's restorable deep copy.
type refCheckpoint struct {
	roots []refRootEntry
	memo  map[refOldKey]reflect.Value // original ref -> clone
	rev   map[refOldKey]reflect.Value // clone ref -> original
	blobs map[refOldKey]any           // Snapshotter state, keyed by original ptr
	bytes int
}

type refRootEntry struct {
	orig  reflect.Value
	clone reflect.Value
}

func refCapture(roots ...any) (*refCheckpoint, error) {
	c := &refCheckpoint{
		memo:  make(map[refOldKey]reflect.Value),
		rev:   make(map[refOldKey]reflect.Value),
		blobs: make(map[refOldKey]any),
	}
	for i, r := range roots {
		if r == nil {
			return nil, &UnsupportedError{Type: "<nil>", Why: fmt.Sprintf("root %d is nil", i)}
		}
		v := reflect.ValueOf(r)
		if v.Kind() != reflect.Pointer || v.IsNil() {
			return nil, &UnsupportedError{
				Type: v.Type().String(),
				Why:  "checkpoint roots must be non-nil pointers",
			}
		}
		clone, err := c.refClone(v)
		if err != nil {
			return nil, err
		}
		c.roots = append(c.roots, refRootEntry{orig: v, clone: clone})
	}
	return c, nil
}

// Bytes returns the approximate number of payload bytes captured.
func (c *refCheckpoint) Bytes() int { return c.bytes }

// detach copies a reference value (pointer, slice header, map header) out
// of its possibly addressable location, so later mutations of that location
// do not change what the checkpoint's reverse map resolves to.
func refDetach(v reflect.Value) reflect.Value {
	d := reflect.New(v.Type()).Elem()
	d.Set(v)
	return d
}

// clone deep-copies v, memoizing references so aliasing (and cycles) are
// preserved in the copy.
func (c *refCheckpoint) refClone(v reflect.Value) (reflect.Value, error) {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		c.bytes += int(v.Type().Size())
		return v, nil
	case reflect.String:
		c.bytes += v.Len()
		return v, nil
	case reflect.Pointer:
		return c.refClonePointer(v)
	case reflect.Slice:
		return c.refCloneSlice(v)
	case reflect.Array:
		return c.refCloneArray(v)
	case reflect.Map:
		return c.refCloneMap(v)
	case reflect.Struct:
		return c.refCloneStruct(v)
	case reflect.Interface:
		if v.IsNil() {
			return reflect.Zero(v.Type()), nil
		}
		inner, err := c.refClone(v.Elem())
		if err != nil {
			return reflect.Value{}, err
		}
		iface := reflect.New(v.Type()).Elem()
		iface.Set(inner)
		return iface, nil
	case reflect.Chan, reflect.Func:
		// External resources are kept by reference, matching the paper's
		// exclusion of external side effects (§4.4).
		return v, nil
	default:
		return reflect.Value{}, &UnsupportedError{
			Type: v.Type().String(),
			Why:  fmt.Sprintf("unsupported kind %s", v.Kind()),
		}
	}
}

func (c *refCheckpoint) refClonePointer(v reflect.Value) (reflect.Value, error) {
	if v.IsNil() {
		return reflect.Zero(v.Type()), nil
	}
	key := refOldKey{ptr: v.Pointer(), typ: v.Type()}
	if prev, ok := c.memo[key]; ok {
		return prev, nil
	}
	// A pointer to a Snapshotter checkpoints via the type's own deep copy.
	if v.Type().Implements(snapshotterType) && v.CanInterface() {
		snap, ok := v.Interface().(Snapshotter)
		if !ok {
			return reflect.Value{}, &UnsupportedError{Type: v.Type().String(), Why: "Snapshotter assertion failed"}
		}
		d := refDetach(v)
		c.memo[key] = d
		c.rev[key] = d
		c.blobs[key] = snap.CheckpointState()
		return d, nil
	}
	fresh := reflect.New(v.Type().Elem())
	c.memo[key] = fresh
	c.rev[refOldKey{ptr: fresh.Pointer(), typ: v.Type()}] = refDetach(v)
	inner, err := c.refClone(v.Elem())
	if err != nil {
		return reflect.Value{}, err
	}
	fresh.Elem().Set(inner)
	return fresh, nil
}

func (c *refCheckpoint) refCloneSlice(v reflect.Value) (reflect.Value, error) {
	if v.IsNil() {
		return reflect.Zero(v.Type()), nil
	}
	key := refOldKey{ptr: v.Pointer(), typ: v.Type(), aux: v.Len()}
	if prev, ok := c.memo[key]; ok {
		return prev, nil
	}
	fresh := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	c.memo[key] = fresh
	if fresh.Len() > 0 {
		c.rev[refOldKey{ptr: fresh.Pointer(), typ: v.Type(), aux: v.Len()}] = refDetach(v)
	}
	// Bulk fast path: elements without interior references copy with one
	// memmove (strings are immutable, so sharing them is safe).
	if refShallowKind(v.Type().Elem().Kind()) {
		reflect.Copy(fresh, v)
		c.bytes += v.Len() * int(v.Type().Elem().Size())
		return fresh, nil
	}
	for i := 0; i < v.Len(); i++ {
		elem, err := c.refClone(v.Index(i))
		if err != nil {
			return reflect.Value{}, err
		}
		fresh.Index(i).Set(elem)
	}
	return fresh, nil
}

// isShallowKind reports element kinds that deep copy by plain assignment.
func refShallowKind(k reflect.Kind) bool {
	switch k {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	default:
		return false
	}
}

func (c *refCheckpoint) refCloneArray(v reflect.Value) (reflect.Value, error) {
	fresh := reflect.New(v.Type()).Elem()
	for i := 0; i < v.Len(); i++ {
		elem, err := c.refClone(v.Index(i))
		if err != nil {
			return reflect.Value{}, err
		}
		fresh.Index(i).Set(elem)
	}
	return fresh, nil
}

func (c *refCheckpoint) refCloneMap(v reflect.Value) (reflect.Value, error) {
	if v.IsNil() {
		return reflect.Zero(v.Type()), nil
	}
	key := refOldKey{ptr: v.Pointer(), typ: v.Type()}
	if prev, ok := c.memo[key]; ok {
		return prev, nil
	}
	fresh := reflect.MakeMapWithSize(v.Type(), v.Len())
	c.memo[key] = fresh
	c.rev[refOldKey{ptr: fresh.Pointer(), typ: v.Type()}] = refDetach(v)
	iter := v.MapRange()
	for iter.Next() {
		k, err := c.refClone(iter.Key())
		if err != nil {
			return reflect.Value{}, err
		}
		val, err := c.refClone(iter.Value())
		if err != nil {
			return reflect.Value{}, err
		}
		fresh.SetMapIndex(k, val)
	}
	return fresh, nil
}

func (c *refCheckpoint) refCloneStruct(v reflect.Value) (reflect.Value, error) {
	t := v.Type()
	fresh := reflect.New(t).Elem()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			if f.Type.Size() == 0 {
				continue
			}
			return reflect.Value{}, &UnsupportedError{
				Type:  t.String(),
				Field: f.Name,
				Why:   "unexported field; implement checkpoint.Snapshotter on the enclosing type",
			}
		}
		inner, err := c.refClone(v.Field(i))
		if err != nil {
			return reflect.Value{}, err
		}
		fresh.Field(i).Set(inner)
	}
	return fresh, nil
}

// Restore reinstates the checkpointed state in place (the paper's
// replace(this, objgraph), Listing 2). Objects that existed at capture time
// get their old contents written back through their original pointers, so
// aliases held elsewhere in the program observe the rollback; objects the
// failed method allocated become garbage (the paper needed reference
// counting for this; Go's GC covers it, cycles included).
func (c *refCheckpoint) Restore() error {
	visited := make(map[refOldKey]bool)
	for _, root := range c.roots {
		key := refOldKey{ptr: root.orig.Pointer(), typ: root.orig.Type()}
		if blob, ok := c.blobs[key]; ok {
			if !visited[key] {
				visited[key] = true
				snap, sok := root.orig.Interface().(Snapshotter)
				if !sok {
					return &UnsupportedError{Type: root.orig.Type().String(), Why: "Snapshotter assertion failed at restore"}
				}
				snap.RestoreState(blob)
			}
			continue
		}
		visited[refOldKey{ptr: root.clone.Pointer(), typ: root.clone.Type()}] = true
		if err := c.refRestoreInto(root.orig.Elem(), root.clone.Elem(), visited); err != nil {
			return err
		}
	}
	return nil
}

// refRestoreInto writes the clone's contents into dst (an original, settable
// location), mapping interior clone pointers back to original pointers.
func (c *refCheckpoint) refRestoreInto(dst, src reflect.Value, visited map[refOldKey]bool) error {
	switch dst.Kind() {
	case reflect.Struct:
		t := dst.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue // zero-size only; non-zero errored at capture
			}
			if err := c.refRestoreInto(dst.Field(i), src.Field(i), visited); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			if err := c.refRestoreInto(dst.Index(i), src.Index(i), visited); err != nil {
				return err
			}
		}
		return nil
	default:
		m, err := c.refMaterialize(src, visited)
		if err != nil {
			return err
		}
		dst.Set(m)
		return nil
	}
}

// refMaterialize converts a clone value into the value to install in an
// original location: original pointers for cloned pointees (restoring their
// contents once), the original map (cleared and refilled) for cloned maps,
// and the original backing array for cloned slices.
func (c *refCheckpoint) refMaterialize(src reflect.Value, visited map[refOldKey]bool) (reflect.Value, error) {
	switch src.Kind() {
	case reflect.Pointer:
		if src.IsNil() {
			return src, nil
		}
		key := refOldKey{ptr: src.Pointer(), typ: src.Type()}
		if blob, ok := c.blobs[key]; ok {
			// Snapshotter: clone == original pointer.
			if !visited[key] {
				visited[key] = true
				snap, sok := src.Interface().(Snapshotter)
				if !sok {
					return reflect.Value{}, &UnsupportedError{Type: src.Type().String(), Why: "Snapshotter assertion failed at restore"}
				}
				snap.RestoreState(blob)
			}
			return src, nil
		}
		orig, ok := c.rev[key]
		if !ok {
			return reflect.Value{}, &UnsupportedError{
				Type: src.Type().String(),
				Why:  fmt.Sprintf("clone pointer %#x has no original", src.Pointer()),
			}
		}
		if !visited[key] {
			visited[key] = true
			if err := c.refRestoreInto(orig.Elem(), src.Elem(), visited); err != nil {
				return reflect.Value{}, err
			}
		}
		return orig, nil
	case reflect.Slice:
		if src.IsNil() || src.Len() == 0 {
			return src, nil
		}
		key := refOldKey{ptr: src.Pointer(), typ: src.Type(), aux: src.Len()}
		orig, ok := c.rev[key]
		if !ok {
			return reflect.Value{}, &UnsupportedError{
				Type: src.Type().String(),
				Why:  "clone slice has no original",
			}
		}
		if !visited[key] {
			visited[key] = true
			if refShallowKind(src.Type().Elem().Kind()) {
				reflect.Copy(orig, src)
				return orig, nil
			}
			for i := 0; i < src.Len(); i++ {
				if err := c.refRestoreInto(orig.Index(i), src.Index(i), visited); err != nil {
					return reflect.Value{}, err
				}
			}
		}
		return orig, nil
	case reflect.Map:
		if src.IsNil() {
			return src, nil
		}
		key := refOldKey{ptr: src.Pointer(), typ: src.Type()}
		orig, ok := c.rev[key]
		if !ok {
			return reflect.Value{}, &UnsupportedError{
				Type: src.Type().String(),
				Why:  "clone map has no original",
			}
		}
		if !visited[key] {
			visited[key] = true
			// Clear the original map in place so external aliases observe
			// the rollback, then refill from the clone.
			iter := orig.MapRange()
			var stale []reflect.Value
			for iter.Next() {
				stale = append(stale, iter.Key())
			}
			for _, k := range stale {
				orig.SetMapIndex(k, reflect.Value{})
			}
			citer := src.MapRange()
			for citer.Next() {
				k, err := c.refMaterialize(citer.Key(), visited)
				if err != nil {
					return reflect.Value{}, err
				}
				v, err := c.refMaterialize(citer.Value(), visited)
				if err != nil {
					return reflect.Value{}, err
				}
				orig.SetMapIndex(k, v)
			}
		}
		return orig, nil
	case reflect.Interface:
		if src.IsNil() {
			return src, nil
		}
		inner, err := c.refMaterialize(src.Elem(), visited)
		if err != nil {
			return reflect.Value{}, err
		}
		iface := reflect.New(src.Type()).Elem()
		iface.Set(inner)
		return iface, nil
	case reflect.Array, reflect.Struct:
		// Composite values inside freshly materialized containers: rebuild.
		fresh := reflect.New(src.Type()).Elem()
		if err := c.refRestoreComposite(fresh, src, visited); err != nil {
			return reflect.Value{}, err
		}
		return fresh, nil
	default:
		return src, nil
	}
}

func (c *refCheckpoint) refRestoreComposite(dst, src reflect.Value, visited map[refOldKey]bool) error {
	switch src.Kind() {
	case reflect.Struct:
		t := src.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			m, err := c.refMaterialize(src.Field(i), visited)
			if err != nil {
				return err
			}
			dst.Field(i).Set(m)
		}
		return nil
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			m, err := c.refMaterialize(src.Index(i), visited)
			if err != nil {
				return err
			}
			dst.Index(i).Set(m)
		}
		return nil
	default:
		return &UnsupportedError{Type: src.Type().String(), Why: "refRestoreComposite on non-composite"}
	}
}
