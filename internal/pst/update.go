package pst

import (
	"sort"

	"segdb/internal/geom"
	"segdb/internal/pager"
)

// NewEmpty creates an empty priority search tree.
func NewEmpty(st *pager.Store, baseX float64, side geom.Side, capacity int) (*Tree, error) {
	return Build(st, baseX, side, capacity, nil)
}

// Insert adds a line-based segment. Placement follows the classical PST
// trickle-down: the segment stays at the highest node whose priority
// (reach) band admits it, displacing the shallowest-reaching resident one
// level down. Balance is restored by an amortized whole-tree rebuild —
// the role the P-range machinery [19] plays in Lemma 3, substituted as
// documented in DESIGN.md §5.
func (t *Tree) Insert(s geom.Segment) error {
	if err := t.validateSegment(s); err != nil {
		return err
	}
	if t.root == pager.InvalidPage {
		id, err := t.newLeaf(s)
		if err != nil {
			return err
		}
		t.root = id
	} else if err := t.insertRec(t.root, s); err != nil {
		return err
	}
	t.length++
	t.sinceRebuild++
	if t.sinceRebuild > t.length/2+t.capacity {
		return t.Rebuild()
	}
	return nil
}

func (t *Tree) newLeaf(s geom.Segment) (pager.PageID, error) {
	b := s.YAt(t.baseX)
	n := &node{
		count:    1,
		segs:     []geom.Segment{s},
		leftTop:  noChild,
		rightTop: noChild,
		minBase:  b,
		maxBase:  b,
	}
	id := t.st.Alloc()
	return id, t.writeNode(id, n)
}

func (t *Tree) insertRec(id pager.PageID, s geom.Segment) error {
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	b := s.YAt(t.baseX)
	if b < n.minBase {
		n.minBase = b
	}
	if b > n.maxBase {
		n.maxBase = b
	}

	down := s
	if t.reach(s) >= n.low || n.count < t.capacity {
		t.blockInsert(n, s)
		if n.count <= t.capacity {
			return t.writeNode(id, n)
		}
		// Overflow: displace the shallowest-reaching resident.
		down = t.blockEvictMin(n)
		if r := t.reach(down); r > n.low {
			n.low = r
		}
	}

	// Route `down` to a child. A node that never split (fresh leaf)
	// fixes its split key at the first displaced segment.
	if n.left == pager.InvalidPage && n.right == pager.InvalidPage {
		n.splitBase = down.YAt(t.baseX)
	}
	goLeft := down.YAt(t.baseX) < n.splitBase
	child := n.right
	if goLeft {
		child = n.left
	}
	r := t.reach(down)
	if child == pager.InvalidPage {
		child, err = t.newLeaf(down)
		if err != nil {
			return err
		}
	} else {
		if err := t.insertRec(child, down); err != nil {
			return err
		}
	}
	if goLeft {
		n.left = child
		if r > n.leftTop {
			n.leftTop = r
		}
	} else {
		n.right = child
		if r > n.rightTop {
			n.rightTop = r
		}
	}
	return t.writeNode(id, n)
}

// blockInsert places s into the node block, keeping base order.
func (t *Tree) blockInsert(n *node, s geom.Segment) {
	pos := sort.Search(len(n.segs), func(i int) bool { return geom.BaseLess(s, n.segs[i], t.baseX, t.side) })
	n.segs = append(n.segs, geom.Segment{})
	copy(n.segs[pos+1:], n.segs[pos:])
	n.segs[pos] = s
	n.count = len(n.segs)
}

// blockEvictMin removes and returns the shallowest-reaching segment.
func (t *Tree) blockEvictMin(n *node) geom.Segment {
	mi := 0
	for i, s := range n.segs {
		if t.reach(s) < t.reach(n.segs[mi]) {
			mi = i
		}
	}
	out := n.segs[mi]
	n.segs = append(n.segs[:mi], n.segs[mi+1:]...)
	n.count = len(n.segs)
	return out
}

// Delete removes the segment with s's ID and geometry, reporting whether
// it was found. Holes are refilled by pulling the farthest-reaching
// segment up from the deeper subtree, as in the classical PST deletion.
func (t *Tree) Delete(s geom.Segment) (bool, error) {
	found, newRoot, _, err := t.deleteRec(t.root, s)
	if err != nil {
		return false, err
	}
	if found {
		t.root = newRoot
		t.length--
	}
	return found, nil
}

// deleteRec returns (found, replacement node id, new subtree max reach).
func (t *Tree) deleteRec(id pager.PageID, s geom.Segment) (bool, pager.PageID, float64, error) {
	if id == pager.InvalidPage {
		return false, id, noChild, nil
	}
	n, err := t.readNode(id)
	if err != nil {
		return false, id, noChild, err
	}
	at := -1
	for i, e := range n.segs {
		if e.ID == s.ID && e.A == s.A && e.B == s.B {
			at = i
			break
		}
	}
	if at >= 0 {
		n.segs = append(n.segs[:at], n.segs[at+1:]...)
		n.count = len(n.segs)
		if err := t.refill(n); err != nil {
			return false, id, noChild, err
		}
		if n.count == 0 && n.left == pager.InvalidPage && n.right == pager.InvalidPage {
			t.st.Free(id)
			return true, pager.InvalidPage, noChild, nil
		}
		if err := t.writeNode(id, n); err != nil {
			return false, id, noChild, err
		}
		return true, id, t.subtreeTop(n), nil
	}

	if n.left == pager.InvalidPage && n.right == pager.InvalidPage {
		return false, id, t.subtreeTop(n), nil
	}
	// Descend by split key; a tie on the base coordinate may belong to
	// either half, so on a miss at the split value try the other child.
	b := s.YAt(t.baseX)
	first, second := n.right, n.left
	firstLeft := false
	if b < n.splitBase {
		first, second = n.left, n.right
		firstLeft = true
	}
	found, newID, top, err := t.deleteRec(first, s)
	if err != nil {
		return false, id, noChild, err
	}
	usedLeft := firstLeft
	if !found && b == n.splitBase {
		found, newID, top, err = t.deleteRec(second, s)
		if err != nil {
			return false, id, noChild, err
		}
		usedLeft = !firstLeft
	}
	if !found {
		return false, id, t.subtreeTop(n), nil
	}
	if usedLeft {
		n.left, n.leftTop = newID, top
	} else {
		n.right, n.rightTop = newID, top
	}
	if err := t.writeNode(id, n); err != nil {
		return false, id, noChild, err
	}
	return true, id, t.subtreeTop(n), nil
}

// refill pulls the farthest-reaching segment up from the deeper subtree
// into an under-full node that still has children.
func (t *Tree) refill(n *node) error {
	for n.count < t.capacity {
		var childID pager.PageID
		fromLeft := false
		switch {
		case n.leftTop >= n.rightTop && n.left != pager.InvalidPage && n.leftTop > noChild:
			childID, fromLeft = n.left, true
		case n.right != pager.InvalidPage && n.rightTop > noChild:
			childID = n.right
		default:
			return nil // nothing below
		}
		seg, ok, newID, top, err := t.pullTop(childID)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		t.blockInsert(n, seg)
		if fromLeft {
			n.left, n.leftTop = newID, top
		} else {
			n.right, n.rightTop = newID, top
		}
	}
	return nil
}

// pullTop removes and returns the farthest-reaching segment of a subtree.
// By the heap property it sits in the subtree's root block.
func (t *Tree) pullTop(id pager.PageID) (geom.Segment, bool, pager.PageID, float64, error) {
	n, err := t.readNode(id)
	if err != nil {
		return geom.Segment{}, false, id, noChild, err
	}
	if n.count == 0 {
		return geom.Segment{}, false, id, t.subtreeTop(n), nil
	}
	mi := 0
	for i, s := range n.segs {
		if t.reach(s) > t.reach(n.segs[mi]) {
			mi = i
		}
	}
	out := n.segs[mi]
	n.segs = append(n.segs[:mi], n.segs[mi+1:]...)
	n.count = len(n.segs)
	if err := t.refill(n); err != nil {
		return geom.Segment{}, false, id, noChild, err
	}
	if n.count == 0 && n.left == pager.InvalidPage && n.right == pager.InvalidPage {
		t.st.Free(id)
		return out, true, pager.InvalidPage, noChild, nil
	}
	if err := t.writeNode(id, n); err != nil {
		return geom.Segment{}, false, id, noChild, err
	}
	return out, true, id, t.subtreeTop(n), nil
}

// subtreeTop returns the max reach in the subtree rooted at n's node.
func (t *Tree) subtreeTop(n *node) float64 {
	top := noChild
	for _, s := range n.segs {
		if r := t.reach(s); r > top {
			top = r
		}
	}
	if n.leftTop > top {
		top = n.leftTop
	}
	if n.rightTop > top {
		top = n.rightTop
	}
	return top
}

// Rebuild reconstructs the tree from its contents, restoring balance.
// Insert calls it on an amortized schedule; owners may call it directly
// after bulk deletions.
func (t *Tree) Rebuild() error {
	segs, err := t.Collect()
	if err != nil {
		return err
	}
	if err := t.dropRec(t.root); err != nil {
		return err
	}
	sort.Slice(segs, func(i, j int) bool { return geom.BaseLess(segs[i], segs[j], t.baseX, t.side) })
	root, err := t.buildRec(segs)
	if err != nil {
		return err
	}
	t.root = root
	t.length = len(segs)
	t.sinceRebuild = 0
	return nil
}
