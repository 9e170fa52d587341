package collections

import (
	"failatomic/internal/core"
	"failatomic/internal/fault"
)

// Method handles of the instrumented methods below.
var (
	mRBTreeNew             = core.Method("RBTree.New")
	mRBTreeSize            = core.Method("RBTree.Size")
	mRBTreeIsEmpty         = core.Method("RBTree.IsEmpty")
	mRBTreeInsert          = core.Method("RBTree.Insert")
	mRBTreeIncludes        = core.Method("RBTree.Includes")
	mRBTreeOccurrences     = core.Method("RBTree.Occurrences")
	mRBTreeFindCell        = core.Method("RBTree.FindCell")
	mRBTreeMin             = core.Method("RBTree.Min")
	mRBTreeMax             = core.Method("RBTree.Max")
	mRBTreeRemoveOne       = core.Method("RBTree.RemoveOne")
	mRBTreeRemoveCell      = core.Method("RBTree.RemoveCell")
	mRBTreeClear           = core.Method("RBTree.Clear")
	mRBTreeToSlice         = core.Method("RBTree.ToSlice")
	mRBTreecompare         = core.Method("RBTree.compare")
	mRBTreeinsertFixup     = core.Method("RBTree.insertFixup")
	mRBTreedeleteFixup     = core.Method("RBTree.deleteFixup")
	mRBTreeleftRotate      = core.Method("RBTree.leftRotate")
	mRBTreerightRotate     = core.Method("RBTree.rightRotate")
	mRBTreetransplant      = core.Method("RBTree.transplant")
	mRBTreeminimumFrom     = core.Method("RBTree.minimumFrom")
	mRBTreeCheckInvariants = core.Method("RBTree.CheckInvariants")
)

// RBCell is one node of a red-black tree.
type RBCell struct {
	Element Item
	Red     bool
	Left    *RBCell
	Right   *RBCell
	Parent  *RBCell
}

// RBTree is a sorted bag implemented as a red-black tree (CLRS-style,
// parent pointers, nil leaves). The comparator may throw IllegalArgument
// for incomparable elements, and mutators bump Version first — both are
// the exception sources the detection phase exploits.
type RBTree struct {
	Root    *RBCell
	Count   int
	Version int
	Cmp     Comparator
}

// NewRBTree returns an empty tree ordered by cmp (DefaultCompare if nil).
func NewRBTree(cmp Comparator) *RBTree {
	defer mRBTreeNew.Enter(nil)()
	if cmp == nil {
		cmp = DefaultCompare
	}
	return &RBTree{Cmp: cmp}
}

// Size returns the number of elements.
func (t *RBTree) Size() int {
	defer mRBTreeSize.Enter(t)()
	return t.Count
}

// IsEmpty reports whether the tree has no elements.
func (t *RBTree) IsEmpty() bool {
	defer mRBTreeIsEmpty.Enter(t)()
	return t.Count == 0
}

// Insert adds v (duplicates allowed, placed in the right subtree).
func (t *RBTree) Insert(v Item) {
	defer mRBTreeInsert.Enter(t)()
	t.Version++
	t.Count++
	cell := &RBCell{Element: v, Red: true}
	var parent *RBCell
	cur := t.Root
	for cur != nil {
		parent = cur
		if t.compare(v, cur.Element) < 0 {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	cell.Parent = parent
	switch {
	case parent == nil:
		t.Root = cell
	case t.compare(v, parent.Element) < 0:
		parent.Left = cell
	default:
		parent.Right = cell
	}
	t.insertFixup(cell)
}

// Includes reports whether an element comparing equal to v is present.
func (t *RBTree) Includes(v Item) bool {
	defer mRBTreeIncludes.Enter(t)()
	return t.FindCell(v) != nil
}

// Occurrences counts the elements comparing equal to v. Rotations can move
// duplicates to either side of an equal node, so the walk descends both
// subtrees once equality is seen.
func (t *RBTree) Occurrences(v Item) int {
	defer mRBTreeOccurrences.Enter(t)()
	var count func(c *RBCell) int
	count = func(c *RBCell) int {
		if c == nil {
			return 0
		}
		cmp := t.compare(v, c.Element)
		if cmp < 0 {
			return count(c.Left)
		}
		if cmp > 0 {
			return count(c.Right)
		}
		return 1 + count(c.Left) + count(c.Right)
	}
	return count(t.Root)
}

// FindCell returns a cell whose element compares equal to v, or nil.
func (t *RBTree) FindCell(v Item) *RBCell {
	defer mRBTreeFindCell.Enter(t)()
	cur := t.Root
	for cur != nil {
		c := t.compare(v, cur.Element)
		if c == 0 {
			return cur
		}
		if c < 0 {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return nil
}

// Min returns the smallest element.
func (t *RBTree) Min() Item {
	defer mRBTreeMin.Enter(t)()
	if t.Root == nil {
		fault.Throw(fault.NoSuchElement, "RBTree.Min", "empty tree")
	}
	return t.minimumFrom(t.Root).Element
}

// Max returns the largest element.
func (t *RBTree) Max() Item {
	defer mRBTreeMax.Enter(t)()
	if t.Root == nil {
		fault.Throw(fault.NoSuchElement, "RBTree.Max", "empty tree")
	}
	cur := t.Root
	for cur.Right != nil {
		cur = cur.Right
	}
	return cur.Element
}

// RemoveOne removes one element comparing equal to v and reports whether
// the tree changed.
func (t *RBTree) RemoveOne(v Item) bool {
	defer mRBTreeRemoveOne.Enter(t)()
	t.Version++
	cell := t.FindCell(v)
	if cell == nil {
		return false
	}
	t.RemoveCell(cell)
	return true
}

// RemoveCell unlinks a cell from the tree (CLRS RB-DELETE).
func (t *RBTree) RemoveCell(z *RBCell) {
	defer mRBTreeRemoveCell.Enter(t)()
	t.Count--
	y := z
	yWasRed := y.Red
	var x, xParent *RBCell
	switch {
	case z.Left == nil:
		x = z.Right
		xParent = z.Parent
		t.transplant(z, z.Right)
	case z.Right == nil:
		x = z.Left
		xParent = z.Parent
		t.transplant(z, z.Left)
	default:
		y = t.minimumFrom(z.Right)
		yWasRed = y.Red
		x = y.Right
		if y.Parent == z {
			xParent = y
		} else {
			xParent = y.Parent
			t.transplant(y, y.Right)
			y.Right = z.Right
			y.Right.Parent = y
		}
		t.transplant(z, y)
		y.Left = z.Left
		y.Left.Parent = y
		y.Red = z.Red
	}
	if !yWasRed {
		t.deleteFixup(x, xParent)
	}
}

// Clear removes all elements.
func (t *RBTree) Clear() {
	defer mRBTreeClear.Enter(t)()
	t.Version++
	t.Root = nil
	t.Count = 0
}

// ToSlice returns the elements in sorted (in-order) sequence.
func (t *RBTree) ToSlice() []Item {
	defer mRBTreeToSlice.Enter(t)()
	out := make([]Item, 0, t.Count)
	var walk func(c *RBCell)
	walk = func(c *RBCell) {
		if c == nil {
			return
		}
		walk(c.Left)
		out = append(out, c.Element)
		walk(c.Right)
	}
	walk(t.Root)
	return out
}

// compare applies the tree's comparator (which may throw).
func (t *RBTree) compare(a, b Item) int {
	defer mRBTreecompare.Enter(t)()
	return t.Cmp(a, b)
}

// insertFixup restores the red-black invariants after an insertion.
func (t *RBTree) insertFixup(z *RBCell) {
	defer mRBTreeinsertFixup.Enter(t)()
	for z.Parent != nil && z.Parent.Red {
		grand := z.Parent.Parent
		if z.Parent == grand.Left {
			uncle := grand.Right
			if uncle != nil && uncle.Red {
				z.Parent.Red = false
				uncle.Red = false
				grand.Red = true
				z = grand
				continue
			}
			if z == z.Parent.Right {
				z = z.Parent
				t.leftRotate(z)
			}
			z.Parent.Red = false
			grand.Red = true
			t.rightRotate(grand)
		} else {
			uncle := grand.Left
			if uncle != nil && uncle.Red {
				z.Parent.Red = false
				uncle.Red = false
				grand.Red = true
				z = grand
				continue
			}
			if z == z.Parent.Left {
				z = z.Parent
				t.rightRotate(z)
			}
			z.Parent.Red = false
			grand.Red = true
			t.leftRotate(grand)
		}
	}
	t.Root.Red = false
}

// deleteFixup restores the invariants after a deletion; x may be nil, so
// its parent is tracked explicitly.
func (t *RBTree) deleteFixup(x, parent *RBCell) {
	defer mRBTreedeleteFixup.Enter(t)()
	for x != t.Root && !isRed(x) {
		if parent == nil {
			break
		}
		if x == parent.Left {
			sib := parent.Right
			if isRed(sib) {
				sib.Red = false
				parent.Red = true
				t.leftRotate(parent)
				sib = parent.Right
			}
			if sib == nil {
				x = parent
				parent = parent.Parent
				continue
			}
			if !isRed(sib.Left) && !isRed(sib.Right) {
				sib.Red = true
				x = parent
				parent = parent.Parent
				continue
			}
			if !isRed(sib.Right) {
				if sib.Left != nil {
					sib.Left.Red = false
				}
				sib.Red = true
				t.rightRotate(sib)
				sib = parent.Right
			}
			sib.Red = parent.Red
			parent.Red = false
			if sib.Right != nil {
				sib.Right.Red = false
			}
			t.leftRotate(parent)
			x = t.Root
			parent = nil
		} else {
			sib := parent.Left
			if isRed(sib) {
				sib.Red = false
				parent.Red = true
				t.rightRotate(parent)
				sib = parent.Left
			}
			if sib == nil {
				x = parent
				parent = parent.Parent
				continue
			}
			if !isRed(sib.Left) && !isRed(sib.Right) {
				sib.Red = true
				x = parent
				parent = parent.Parent
				continue
			}
			if !isRed(sib.Left) {
				if sib.Right != nil {
					sib.Right.Red = false
				}
				sib.Red = true
				t.leftRotate(sib)
				sib = parent.Left
			}
			sib.Red = parent.Red
			parent.Red = false
			if sib.Left != nil {
				sib.Left.Red = false
			}
			t.rightRotate(parent)
			x = t.Root
			parent = nil
		}
	}
	if x != nil {
		x.Red = false
	}
}

// leftRotate rotates the subtree rooted at x to the left.
func (t *RBTree) leftRotate(x *RBCell) {
	defer mRBTreeleftRotate.Enter(t)()
	y := x.Right
	x.Right = y.Left
	if y.Left != nil {
		y.Left.Parent = x
	}
	y.Parent = x.Parent
	switch {
	case x.Parent == nil:
		t.Root = y
	case x == x.Parent.Left:
		x.Parent.Left = y
	default:
		x.Parent.Right = y
	}
	y.Left = x
	x.Parent = y
}

// rightRotate rotates the subtree rooted at x to the right.
func (t *RBTree) rightRotate(x *RBCell) {
	defer mRBTreerightRotate.Enter(t)()
	y := x.Left
	x.Left = y.Right
	if y.Right != nil {
		y.Right.Parent = x
	}
	y.Parent = x.Parent
	switch {
	case x.Parent == nil:
		t.Root = y
	case x == x.Parent.Right:
		x.Parent.Right = y
	default:
		x.Parent.Left = y
	}
	y.Right = x
	x.Parent = y
}

// transplant replaces the subtree rooted at u with the one rooted at v.
func (t *RBTree) transplant(u, v *RBCell) {
	defer mRBTreetransplant.Enter(t)()
	switch {
	case u.Parent == nil:
		t.Root = v
	case u == u.Parent.Left:
		u.Parent.Left = v
	default:
		u.Parent.Right = v
	}
	if v != nil {
		v.Parent = u.Parent
	}
}

// minimumFrom returns the leftmost cell under c.
func (t *RBTree) minimumFrom(c *RBCell) *RBCell {
	defer mRBTreeminimumFrom.Enter(t)()
	for c.Left != nil {
		c = c.Left
	}
	return c
}

func isRed(c *RBCell) bool { return c != nil && c.Red }

// CheckInvariants verifies the red-black properties and sortedness; it
// returns the black height or throws IllegalState. Used by tests and by
// the RBTree application workload as a consistency probe.
func (t *RBTree) CheckInvariants() int {
	defer mRBTreeCheckInvariants.Enter(t)()
	if t.Root == nil {
		return 0
	}
	if t.Root.Red {
		fault.Throw(fault.IllegalState, "RBTree.CheckInvariants", "red root")
	}
	var check func(c *RBCell) int
	check = func(c *RBCell) int {
		if c == nil {
			return 1
		}
		if c.Red && (isRed(c.Left) || isRed(c.Right)) {
			fault.Throw(fault.IllegalState, "RBTree.CheckInvariants", "red-red violation")
		}
		lh := check(c.Left)
		rh := check(c.Right)
		if lh != rh {
			fault.Throw(fault.IllegalState, "RBTree.CheckInvariants",
				"black height mismatch %d != %d", lh, rh)
		}
		if c.Left != nil && t.Cmp(c.Left.Element, c.Element) > 0 {
			fault.Throw(fault.IllegalState, "RBTree.CheckInvariants", "unsorted left child")
		}
		if c.Right != nil && t.Cmp(c.Element, c.Right.Element) > 0 {
			fault.Throw(fault.IllegalState, "RBTree.CheckInvariants", "unsorted right child")
		}
		if !c.Red {
			return lh + 1
		}
		return lh
	}
	return check(t.Root)
}

// RegisterRBTree adds the RBTree methods to a registry.
func RegisterRBTree(r *core.Registry) {
	r.Ctor("RBTree", "RBTree.New").
		Method("RBTree", "Size").
		Method("RBTree", "IsEmpty").
		Method("RBTree", "Insert", fault.IllegalArgument).
		Method("RBTree", "Includes", fault.IllegalArgument).
		Method("RBTree", "Occurrences", fault.IllegalArgument).
		Method("RBTree", "FindCell", fault.IllegalArgument).
		Method("RBTree", "Min", fault.NoSuchElement).
		Method("RBTree", "Max", fault.NoSuchElement).
		Method("RBTree", "RemoveOne", fault.IllegalArgument).
		Method("RBTree", "RemoveCell").
		Method("RBTree", "Clear").
		Method("RBTree", "ToSlice").
		Method("RBTree", "compare", fault.IllegalArgument).
		Method("RBTree", "insertFixup").
		Method("RBTree", "deleteFixup").
		Method("RBTree", "leftRotate").
		Method("RBTree", "rightRotate").
		Method("RBTree", "transplant").
		Method("RBTree", "minimumFrom").
		Method("RBTree", "CheckInvariants", fault.IllegalState)
}
