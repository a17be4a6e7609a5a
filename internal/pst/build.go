package pst

import (
	"fmt"
	"math"
	"sort"

	"segdb/internal/geom"
	"segdb/internal/pager"
)

// Build bulk-loads a priority search tree for the given line-based
// segments. capacity is the paper's B (segments per node); it must fit the
// store's page size (see MaxCapacity). Every segment must be line-based on
// x = baseX towards side.
func Build(st *pager.Store, baseX float64, side geom.Side, capacity int, segs []geom.Segment) (*Tree, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pst: capacity %d < 1", capacity)
	}
	if capacity > MaxCapacity(st.PageSize()) {
		return nil, fmt.Errorf("pst: capacity %d exceeds page capacity %d",
			capacity, MaxCapacity(st.PageSize()))
	}
	t := &Tree{st: st, baseX: baseX, side: side, capacity: capacity}
	for _, s := range segs {
		if err := t.validateSegment(s); err != nil {
			return nil, err
		}
	}
	ordered := make([]geom.Segment, len(segs))
	copy(ordered, segs)
	sort.Slice(ordered, func(i, j int) bool { return geom.BaseLess(ordered[i], ordered[j], t.baseX, t.side) })
	root, err := t.buildRec(ordered)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.length = len(segs)
	return t, nil
}

// buildRec builds the subtree for segments pre-sorted in base order,
// following the paper's construction: the B farthest-reaching segments
// stay in the node; the rest are split into equal halves by base order.
func (t *Tree) buildRec(ordered []geom.Segment) (pager.PageID, error) {
	if len(ordered) == 0 {
		return pager.InvalidPage, nil
	}
	n := &node{
		minBase:  ordered[0].YAt(t.baseX),
		maxBase:  ordered[len(ordered)-1].YAt(t.baseX),
		leftTop:  noChild,
		rightTop: noChild,
	}

	take := t.capacity
	if take > len(ordered) {
		take = len(ordered)
	}
	// Select the `take` farthest-reaching segments, keeping base order
	// inside both the selection and the remainder.
	byReach := make([]int, len(ordered))
	for i := range byReach {
		byReach[i] = i
	}
	sort.SliceStable(byReach, func(a, b int) bool {
		return t.reach(ordered[byReach[a]]) > t.reach(ordered[byReach[b]])
	})
	selected := make([]bool, len(ordered))
	for _, idx := range byReach[:take] {
		selected[idx] = true
	}
	var rest []geom.Segment
	for i, s := range ordered {
		if selected[i] {
			n.segs = append(n.segs, s)
		} else {
			rest = append(rest, s)
		}
	}
	n.count = len(n.segs)

	if len(rest) > 0 {
		// low separates the node's segments from everything below.
		for _, s := range rest {
			n.low = math.Max(n.low, t.reach(s))
		}
		half := len(rest) / 2
		leftHalf, rightHalf := rest[:half], rest[half:]
		n.splitBase = rightHalf[0].YAt(t.baseX)
		var err error
		if n.left, err = t.buildRec(leftHalf); err != nil {
			return pager.InvalidPage, err
		}
		if n.right, err = t.buildRec(rightHalf); err != nil {
			return pager.InvalidPage, err
		}
		if len(leftHalf) > 0 {
			n.leftTop = t.maxReach(leftHalf)
		}
		n.rightTop = t.maxReach(rightHalf)
	}

	id := t.st.Alloc()
	return id, t.writeNode(id, n)
}

func (t *Tree) maxReach(segs []geom.Segment) float64 {
	if len(segs) == 0 {
		return noChild
	}
	m := t.reach(segs[0])
	for _, s := range segs[1:] {
		if r := t.reach(s); r > m {
			m = r
		}
	}
	return m
}

// Collect returns every stored segment (used by rebuilds and tests).
func (t *Tree) Collect() ([]geom.Segment, error) {
	var out []geom.Segment
	err := t.walk(t.root, func(n *node) error {
		out = append(out, n.segs...)
		return nil
	})
	return out, err
}

func (t *Tree) walk(id pager.PageID, fn func(*node) error) error {
	if id == pager.InvalidPage {
		return nil
	}
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if err := fn(n); err != nil {
		return err
	}
	if err := t.walk(n.left, fn); err != nil {
		return err
	}
	return t.walk(n.right, fn)
}

// Drop frees every page of the tree.
func (t *Tree) Drop() error {
	err := t.dropRec(t.root)
	t.root = pager.InvalidPage
	t.length = 0
	return err
}

func (t *Tree) dropRec(id pager.PageID) error {
	if id == pager.InvalidPage {
		return nil
	}
	n, err := t.readNode(id)
	if err != nil {
		return err
	}
	if err := t.dropRec(n.left); err != nil {
		return err
	}
	if err := t.dropRec(n.right); err != nil {
		return err
	}
	t.st.Free(id)
	return nil
}

// Height returns the tree height in nodes (0 for an empty tree). It is
// O(log n) after Build; inserts may lengthen paths until the amortized
// rebuild restores balance.
func (t *Tree) Height() (int, error) {
	return t.heightRec(t.root)
}

func (t *Tree) heightRec(id pager.PageID) (int, error) {
	if id == pager.InvalidPage {
		return 0, nil
	}
	n, err := t.readNode(id)
	if err != nil {
		return 0, err
	}
	hl, err := t.heightRec(n.left)
	if err != nil {
		return 0, err
	}
	hr, err := t.heightRec(n.right)
	if err != nil {
		return 0, err
	}
	if hr > hl {
		hl = hr
	}
	return hl + 1, nil
}
