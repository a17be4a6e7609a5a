// Package bpst implements a search-accelerated external priority search
// tree for line-based segments: the module's documented substitution for
// the P-range tree of Subramanian and Ramaswamy, which the paper invokes
// (its reference [19]) to reduce the Section-2 structure's query cost from
// O(log n + t) to O(log_B n + IL*(B) + t) — see DESIGN.md §5.
//
// The structure generalises Arge–Samoladas–Vitter-style child caching to
// line-based segments. An internal node partitions its segments into f =
// Θ(B) contiguous runs of the base-line order; the B farthest-reaching
// segments of each run stay at the node as that child's cache (one page
// per child), and the rest recurse. A one-page digest per node records,
// for every child, the extremes needed for pruning: the farthest reach in
// the child's subtree, the shallowest cached reach (everything below
// reaches no farther), and the base range. Root-to-answer search therefore
// costs O(log_B n) page reads; the same non-crossing window argument as in
// package pst prunes by position.
package bpst

import (
	"fmt"
	"sort"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/segrec"
)

// Tree is a search-accelerated external PST for line-based segments.
type Tree struct {
	st           *pager.Store
	baseX        float64
	side         geom.Side
	cacheCap     int // B: segments per cache page / leaf page
	fanout       int // f: children per internal node
	root         pager.PageID
	length       int
	sinceRebuild int
}

// digest page:
//
//	type u8 | nChildren u8 | pad u16 |
//	per child: cachePage u32, childPage u32, cacheCount u16,
//	           maxReach f64, minCacheReach f64, minBase f64, maxBase f64,
//	           minY f64, maxY f64
//
// leaf page:
//
//	type u8 | pad u8 | count u16 | segs ...
const (
	typeInternal = 1
	typeLeaf     = 2

	digestHeader = 4
	childEntry   = 4 + 4 + 2 + 6*8
	leafHeader   = 4
)

type childInfo struct {
	cachePage  pager.PageID
	childPage  pager.PageID
	cacheCount int
	maxReach   float64 // farthest reach anywhere in run (cache + subtree)
	minCache   float64 // shallowest cached reach; subtree reaches ≤ this
	minBase    float64
	maxBase    float64
	minY       float64 // y-extent of the whole run: a query segment
	maxY       float64 // outside it cannot intersect anything in the run
}

type dnode struct {
	children []childInfo
}

// Shape returns the fanout and cache capacity that fit the store's pages:
// capacity B segments per cache page, fanout f segments-runs per node.
func Shape(pageSize int) (fanout, cacheCap int) {
	cacheCap = (pageSize - leafHeader) / segrec.Size
	fanout = (pageSize - digestHeader) / childEntry
	if fanout < 2 {
		fanout = 2
	}
	if fanout > cacheCap {
		fanout = cacheCap
	}
	return fanout, cacheCap
}

// Build bulk-loads the structure. All segments must be line-based on
// x = baseX towards side.
func Build(st *pager.Store, baseX float64, side geom.Side, segs []geom.Segment) (*Tree, error) {
	fanout, cacheCap := Shape(st.PageSize())
	if cacheCap < 1 {
		return nil, fmt.Errorf("bpst: page size %d holds no segments", st.PageSize())
	}
	t := &Tree{st: st, baseX: baseX, side: side, cacheCap: cacheCap, fanout: fanout}
	for _, s := range segs {
		if !geom.SpansX(s, baseX) {
			return nil, fmt.Errorf("bpst: %v does not meet the base line x=%g", s, baseX)
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

// NewEmpty creates an empty tree.
func NewEmpty(st *pager.Store, baseX float64, side geom.Side) (*Tree, error) {
	return Build(st, baseX, side, nil)
}

// Len returns the number of stored segments.
func (t *Tree) Len() int { return t.length }

// Handle returns the persistent identity of the tree (root page, length,
// rebuild counter), for owners that keep PSTs inside their own node pages.
// It changes on every mutation and must be re-persisted by the owner.
func (t *Tree) Handle() (root pager.PageID, length, sinceRebuild int) {
	return t.root, t.length, t.sinceRebuild
}

// Attach reconstructs a handle persisted with Handle. The geometry
// parameters must match the ones the tree was built with.
func Attach(st *pager.Store, baseX float64, side geom.Side,
	root pager.PageID, length, sinceRebuild int) *Tree {
	fanout, cacheCap := Shape(st.PageSize())
	return &Tree{
		st: st, baseX: baseX, side: side, cacheCap: cacheCap, fanout: fanout,
		root: root, length: length, sinceRebuild: sinceRebuild,
	}
}

// reach treats the stored segment's side-part as the line-based segment
// of Section 2, with the base-line crossing as its base endpoint; see
// package pst and geom.BaseLess, the order both trees share.
func (t *Tree) reach(s geom.Segment) float64 { return geom.SideReach(s, t.baseX, t.side) }

// partYExtent returns the y-extent of the stored segment's side-part —
// the interval between its base crossing and its far endpoint.
func (t *Tree) partYExtent(s geom.Segment) (lo, hi float64) {
	a, b := s.YAt(t.baseX), geom.FarYAt(s, t.side)
	if a > b {
		a, b = b, a
	}
	return a, b
}

// --- page encode/decode ---------------------------------------------------

func (t *Tree) writeDigest(id pager.PageID, n *dnode) error {
	page := make([]byte, t.st.PageSize())
	c := pager.NewBuf(page)
	c.PutU8(typeInternal)
	c.PutU8(uint8(len(n.children)))
	c.PutU16(0)
	for _, ch := range n.children {
		c.PutPage(ch.cachePage)
		c.PutPage(ch.childPage)
		c.PutU16(uint16(ch.cacheCount))
		c.PutF64(ch.maxReach)
		c.PutF64(ch.minCache)
		c.PutF64(ch.minBase)
		c.PutF64(ch.maxBase)
		c.PutF64(ch.minY)
		c.PutF64(ch.maxY)
	}
	return t.st.Write(id, page)
}

func (t *Tree) writeLeaf(id pager.PageID, segs []geom.Segment) error {
	page := make([]byte, t.st.PageSize())
	c := pager.NewBuf(page)
	c.PutU8(typeLeaf)
	c.PutU8(0)
	c.PutU16(uint16(len(segs)))
	for _, s := range segs {
		segrec.Put(c, s)
	}
	return t.st.Write(id, page)
}

// readPage decodes either page kind: exactly one of the results is set.
func (t *Tree) readPage(id pager.PageID) (*dnode, []geom.Segment, error) {
	page, err := t.st.Read(id)
	if err != nil {
		return nil, nil, err
	}
	c := pager.NewBuf(page)
	switch typ := c.U8(); typ {
	case typeLeaf:
		c.Skip(1)
		count := int(c.U16())
		segs := make([]geom.Segment, count)
		for i := range segs {
			segs[i] = segrec.Get(c)
		}
		return nil, segs, nil
	case typeInternal:
		nc := int(c.U8())
		c.Skip(2)
		n := &dnode{children: make([]childInfo, nc)}
		for i := range n.children {
			ch := &n.children[i]
			ch.cachePage = c.Page()
			ch.childPage = c.Page()
			ch.cacheCount = int(c.U16())
			ch.maxReach = c.F64()
			ch.minCache = c.F64()
			ch.minBase = c.F64()
			ch.maxBase = c.F64()
			ch.minY = c.F64()
			ch.maxY = c.F64()
		}
		return n, nil, nil
	default:
		return nil, nil, fmt.Errorf("bpst: page %d has unknown type %d", id, typ)
	}
}

// writeCache stores a cache run (sorted by base order) in its own page,
// reusing the leaf layout.
func (t *Tree) writeCache(id pager.PageID, segs []geom.Segment) error {
	return t.writeLeaf(id, segs)
}

func (t *Tree) readSegPage(id pager.PageID) ([]geom.Segment, error) {
	_, segs, err := t.readPage(id)
	if err != nil {
		return nil, err
	}
	if segs == nil {
		return nil, fmt.Errorf("bpst: page %d is not a segment page", id)
	}
	return segs, nil
}

// buildRec builds the subtree for base-ordered segments.
func (t *Tree) buildRec(ordered []geom.Segment) (pager.PageID, error) {
	if len(ordered) == 0 {
		return pager.InvalidPage, nil
	}
	if len(ordered) <= t.cacheCap {
		id := t.st.Alloc()
		return id, t.writeLeaf(id, ordered)
	}
	f := t.fanout
	n := &dnode{}
	per := (len(ordered) + f - 1) / f
	if per < t.cacheCap {
		// Small sets use fewer, fully-packed children rather than f
		// underfull caches, keeping the space linear.
		per = t.cacheCap
	}
	for start := 0; start < len(ordered); start += per {
		end := start + per
		if end > len(ordered) {
			end = len(ordered)
		}
		run := ordered[start:end]
		ci, err := t.buildChild(run)
		if err != nil {
			return pager.InvalidPage, err
		}
		n.children = append(n.children, ci)
	}
	id := t.st.Alloc()
	return id, t.writeDigest(id, n)
}

// buildChild materialises one child entry: the run's cache page and its
// recursive subtree.
func (t *Tree) buildChild(run []geom.Segment) (childInfo, error) {
	lo0, hi0 := t.partYExtent(run[0])
	ci := childInfo{
		minBase: run[0].YAt(t.baseX),
		maxBase: run[len(run)-1].YAt(t.baseX),
		minY:    lo0,
		maxY:    hi0,
	}
	for _, s := range run[1:] {
		lo, hi := t.partYExtent(s)
		if lo < ci.minY {
			ci.minY = lo
		}
		if hi > ci.maxY {
			ci.maxY = hi
		}
	}
	take := t.cacheCap
	if take > len(run) {
		take = len(run)
	}
	idx := make([]int, len(run))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return t.reach(run[idx[a]]) > t.reach(run[idx[b]])
	})
	inCache := make([]bool, len(run))
	for _, i := range idx[:take] {
		inCache[i] = true
	}
	var cache, rest []geom.Segment
	for i, s := range run {
		if inCache[i] {
			cache = append(cache, s)
		} else {
			rest = append(rest, s)
		}
	}
	ci.cacheCount = len(cache)
	ci.maxReach = t.reach(run[idx[0]])
	ci.minCache = t.reach(run[idx[take-1]])
	ci.cachePage = t.st.Alloc()
	if err := t.writeCache(ci.cachePage, cache); err != nil {
		return ci, err
	}
	sub, err := t.buildRec(rest)
	if err != nil {
		return ci, err
	}
	ci.childPage = sub
	return ci, nil
}

// Collect returns all stored segments.
func (t *Tree) Collect() ([]geom.Segment, error) {
	var out []geom.Segment
	err := t.walk(t.root, &out)
	return out, err
}

func (t *Tree) walk(id pager.PageID, out *[]geom.Segment) error {
	if id == pager.InvalidPage {
		return nil
	}
	n, segs, err := t.readPage(id)
	if err != nil {
		return err
	}
	if segs != nil {
		*out = append(*out, segs...)
		return nil
	}
	for _, ch := range n.children {
		cache, err := t.readSegPage(ch.cachePage)
		if err != nil {
			return err
		}
		*out = append(*out, cache...)
		if err := t.walk(ch.childPage, out); err != nil {
			return err
		}
	}
	return nil
}

// Drop frees every page.
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
	n, _, err := t.readPage(id)
	if err != nil {
		return err
	}
	if n != nil {
		for _, ch := range n.children {
			t.st.Free(ch.cachePage)
			if err := t.dropRec(ch.childPage); err != nil {
				return err
			}
		}
	}
	t.st.Free(id)
	return nil
}
