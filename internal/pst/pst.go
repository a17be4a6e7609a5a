// Package pst implements the external priority search tree for line-based
// segments from Section 2 of Bertino, Catania and Shidlovsky (EDBT 1998).
//
// A set of segments is line-based when every segment has an endpoint on a
// common base line and all segments lie in the same half-plane of it. The
// two-level structures of Sections 3 and 4 use vertical base lines, so
// this package works in the vertical frame natively: the base line is
// x = BaseX, segments extend to one Side of it, and queries are vertical
// segments parallel to the base line (geom.VQuery). Section 2's
// presentation uses the transposed (horizontal) frame; the structures are
// identical under the swap x↔y.
//
// Structure (paper, Section 2): a balanced binary tree over the segments'
// base-line order. Each node stores the B segments of its subtree that
// extend farthest from the base line ("topmost endpoints" in the paper's
// frame), ordered by their intersection with the base line; a separator
// low — the farthest reach of any segment below the node; and copies of
// the farthest reach of each child's subtree (the paper copies the top
// segments v.left and v.right; only their reach is ever compared, so only
// the reach is stored).
//
// Search exploits the property the paper's Find/Report algorithms rest on:
// non-crossing segments that reach the query line cross it in base-line
// order, so the answers form a contiguous run of that order among reaching
// segments. The traversal maintains a window of base positions that can
// still contain answers, narrowing it with every scanned segment whose
// crossing falls outside the query range, and prunes subtrees by the
// window and by the copied child reaches. Lemma 2's O(log n + t) visit
// bound is validated empirically (experiments F10/F11 in EXPERIMENTS.md).
package pst

import (
	"fmt"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/segrec"
)

// Tree is an external priority search tree for line-based segments.
type Tree struct {
	st           *pager.Store
	baseX        float64
	side         geom.Side
	capacity     int // B: segments per node
	root         pager.PageID
	length       int
	sinceRebuild int
}

// node layout:
//
//	count u16 | left u32 | right u32 |
//	low f64 | leftTopReach f64 | rightTopReach f64 |
//	minBase f64 | maxBase f64 | splitBase f64 |
//	segs capacity × 40
const nodeHeader = 2 + 4 + 4 + 6*8

// noChild marks an absent child's copied reach.
const noChild float64 = -1

type node struct {
	count       int
	left, right pager.PageID
	low         float64 // max reach below this node (0 if nothing below)
	leftTop     float64 // max reach in left subtree, or noChild
	rightTop    float64 // max reach in right subtree, or noChild
	minBase     float64
	maxBase     float64
	splitBase   float64
	segs        []geom.Segment // sorted by base order
}

// MaxCapacity returns the node capacity (the paper's B) that fits a page.
func MaxCapacity(pageSize int) int {
	return (pageSize - nodeHeader) / segrec.Size
}

func (t *Tree) encodeNode(n *node) []byte {
	page := make([]byte, t.st.PageSize())
	c := pager.NewBuf(page)
	c.PutU16(uint16(n.count))
	c.PutPage(n.left)
	c.PutPage(n.right)
	c.PutF64(n.low)
	c.PutF64(n.leftTop)
	c.PutF64(n.rightTop)
	c.PutF64(n.minBase)
	c.PutF64(n.maxBase)
	c.PutF64(n.splitBase)
	for _, s := range n.segs {
		segrec.Put(c, s)
	}
	return page
}

func (t *Tree) decodeNode(page []byte) *node {
	c := pager.NewBuf(page)
	n := &node{}
	n.count = int(c.U16())
	n.left = c.Page()
	n.right = c.Page()
	n.low = c.F64()
	n.leftTop = c.F64()
	n.rightTop = c.F64()
	n.minBase = c.F64()
	n.maxBase = c.F64()
	n.splitBase = c.F64()
	n.segs = make([]geom.Segment, n.count)
	for i := range n.segs {
		n.segs[i] = segrec.Get(c)
	}
	return n
}

func (t *Tree) readNode(id pager.PageID) (*node, error) {
	page, err := t.st.Read(id)
	if err != nil {
		return nil, err
	}
	return t.decodeNode(page), nil
}

func (t *Tree) writeNode(id pager.PageID, n *node) error {
	return t.st.Write(id, t.encodeNode(n))
}

// Handle returns the persistent identity of the tree (root page, length,
// rebuild counter), for owners that keep PSTs inside their own node pages.
// It changes on every mutation and must be re-persisted by the owner.
func (t *Tree) Handle() (root pager.PageID, length, sinceRebuild int) {
	return t.root, t.length, t.sinceRebuild
}

// Attach reconstructs a handle persisted with Handle. The geometry
// parameters must match the ones the tree was built with.
func Attach(st *pager.Store, baseX float64, side geom.Side, capacity int,
	root pager.PageID, length, sinceRebuild int) *Tree {
	return &Tree{
		st: st, baseX: baseX, side: side, capacity: capacity,
		root: root, length: length, sinceRebuild: sinceRebuild,
	}
}

// Len returns the number of stored segments.
func (t *Tree) Len() int { return t.length }

// reach is the priority of a segment: the extent of its side-part beyond
// the base line. The base-line order the tree keeps its segments in is
// geom.BaseLess on (baseX, side), keyed by the y at which a segment meets
// the base line, s.YAt(t.baseX).
func (t *Tree) reach(s geom.Segment) float64 {
	return geom.SideReach(s, t.baseX, t.side)
}

func (t *Tree) validateSegment(s geom.Segment) error {
	if !geom.SpansX(s, t.baseX) {
		return fmt.Errorf("pst: %v does not meet the base line x=%g", s, t.baseX)
	}
	return nil
}
