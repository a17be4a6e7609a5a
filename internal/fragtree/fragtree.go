// Package fragtree implements the B+-trees that Section 4.2 of the paper
// maintains over multislab lists: ordered lists of non-crossing long
// fragments, all spanning a common x-interval, ordered by their vertical
// position.
//
// A generic B+-tree cannot serve here: the query searches the list by the
// fragments' crossing with an arbitrary vertical line x = x0 inside the
// spanned interval, while any fixed scalar key fixes one reference line.
// Because the fragments are non-crossing and all span the interval, their
// vertical order is the same at every x inside it — so this tree stores
// whole fragments as separators in internal nodes and evaluates ordering
// predicates geometrically during descent. That makes SeekCrossing(x0, y)
// — "first fragment crossing x = x0 at or above y" — a single O(log_B n)
// root-to-leaf walk for any x0 in the interval.
//
// Each leaf additionally carries one auxiliary page reference, which the
// fractional cascading of internal/multislab points at the bridge-table
// page covering the leaf's key range, making bridge lookup O(1) I/Os from
// any cursor position.
package fragtree

import (
	"fmt"
	"math"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/segrec"
)

// Entry flags.
const (
	// FlagAugmented marks a fractional-cascading copy of a child-list
	// fragment; copies position bridge jumps and are never reported.
	FlagAugmented uint8 = 1 << 0
	// FlagJump marks an entry carrying jump references into the child
	// list (set on augmented copies and on annotated originals).
	FlagJump uint8 = 1 << 1
)

// Entry is one element of a multislab list: a fragment plus the
// fractional-cascading metadata of Section 4.3. JumpA and JumpB are the
// leaves this entry's vertical position falls in within the child list's
// two variants (see internal/multislab); they are meaningful only when
// FlagJump is set.
type Entry struct {
	Seg          geom.Segment
	Flags        uint8
	JumpA, JumpB pager.PageID
}

// EntrySize is the encoded size of one entry.
const EntrySize = segrec.Size + 1 + 4 + 4

func putEntry(c *pager.Buf, e Entry) {
	segrec.Put(c, e.Seg)
	c.PutU8(e.Flags)
	c.PutPage(e.JumpA)
	c.PutPage(e.JumpB)
}

func getEntry(c *pager.Buf) Entry {
	var e Entry
	e.Seg = segrec.Get(c)
	e.Flags = c.U8()
	e.JumpA = c.Page()
	e.JumpB = c.Page()
	return e
}

// sepSize is the encoded size of an internal separator: fragment + child.
const sepSize = segrec.Size + 4

// node header: type u8 | pad u8 | count u16 | next u32 | prev u32 | aux u32
const nodeHeader = 16

const (
	typeLeaf     = 1
	typeInternal = 2
)

// Tree is a fragment B+-tree. refX is the reference line used to order
// insertions; every stored fragment must span it (and queries must use
// lines the fragments span — the multislab structure guarantees both).
type Tree struct {
	st     *pager.Store
	refX   float64
	root   pager.PageID
	height int
	length int
}

// Shape returns leaf and internal capacities for a page size.
func Shape(pageSize int) (leafCap, intCap int) {
	leafCap = (pageSize - nodeHeader) / EntrySize
	intCap = (pageSize - nodeHeader - 4) / sepSize
	return leafCap, intCap
}

// New creates an empty tree ordered at reference line x = refX.
func New(st *pager.Store, refX float64) (*Tree, error) {
	leafCap, intCap := Shape(st.PageSize())
	if leafCap < 2 || intCap < 2 {
		return nil, fmt.Errorf("fragtree: page size %d too small", st.PageSize())
	}
	t := &Tree{st: st, refX: refX, height: 1}
	t.root = st.Alloc()
	page := make([]byte, st.PageSize())
	initNode(page, typeLeaf)
	return t, st.Write(t.root, page)
}

// Bulk builds a tree from entries already sorted by (crossing at refX,
// ID), packing leaves full and building the internal levels bottom-up —
// O(n) I/Os and 100% leaf occupancy, which matters because the cascading
// rebuilds of internal/multislab reconstruct every list this way.
func Bulk(st *pager.Store, refX float64, entries []Entry) (*Tree, error) {
	t, err := New(st, refX)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	for i := 1; i < len(entries); i++ {
		if t.segLess(entries[i].Seg, entries[i-1].Seg) {
			return nil, fmt.Errorf("fragtree: Bulk input not sorted at %d", i)
		}
		if !geom.SpansX(entries[i].Seg, refX) {
			return nil, errSpan(entries[i].Seg, refX)
		}
	}
	if !geom.SpansX(entries[0].Seg, refX) {
		return nil, errSpan(entries[0].Seg, refX)
	}
	leafCap, intCap := Shape(st.PageSize())

	type ref struct {
		id  pager.PageID
		sep geom.Segment // first fragment of the subtree
	}
	// Pack the leaf level, reusing the root page New allocated as the
	// first leaf and chaining the rest.
	var level []ref
	prev := pager.InvalidPage
	for start := 0; start < len(entries); start += leafCap {
		end := start + leafCap
		if end > len(entries) {
			end = len(entries)
		}
		id := t.root
		if start > 0 {
			id = st.Alloc()
		}
		page := make([]byte, st.PageSize())
		initNode(page, typeLeaf)
		v := view(page)
		for i, e := range entries[start:end] {
			putLeafEntry(v, i, e)
		}
		v.setCount(end - start)
		v.setPrev(prev)
		if prev != pager.InvalidPage {
			pp, err := st.Read(prev)
			if err != nil {
				return nil, err
			}
			pv := view(pp)
			pv.setNext(id)
			if err := st.Write(prev, pp); err != nil {
				return nil, err
			}
		}
		if err := st.Write(id, page); err != nil {
			return nil, err
		}
		prev = id
		level = append(level, ref{id: id, sep: entries[start].Seg})
	}
	// Internal levels at 3/4 occupancy so early inserts split rarely.
	per := intCap * 3 / 4
	if per < 2 {
		per = 2
	}
	height := 1
	for len(level) > 1 {
		var up []ref
		for start := 0; start < len(level); {
			end := start + per
			if end > len(level) {
				end = len(level)
			}
			if end-start == 1 && len(up) > 0 {
				// Avoid a 0-separator node: rebuild the previous group
				// extended by the lone trailing child (per ≤ intCap, so
				// per+1 children still fit).
				start -= per
				end = len(level)
				st.Free(up[len(up)-1].id)
				up = up[:len(up)-1]
			}
			id := st.Alloc()
			page := make([]byte, st.PageSize())
			initNode(page, typeInternal)
			v := view(page)
			setIntChild0(v, level[start].id)
			for i := start + 1; i < end; i++ {
				putIntSep(v, i-start-1, level[i].sep, level[i].id)
			}
			v.setCount(end - start - 1)
			if err := st.Write(id, page); err != nil {
				return nil, err
			}
			up = append(up, ref{id: id, sep: level[start].sep})
			start = end
		}
		level = up
		height++
	}
	t.root = level[0].id
	t.height = height
	t.length = len(entries)
	return t, nil
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.length }

// Handle returns the persistent identity (root, height, length).
func (t *Tree) Handle() (pager.PageID, int, int) { return t.root, t.height, t.length }

// Attach reconstructs a tree persisted with Handle.
func Attach(st *pager.Store, refX float64, root pager.PageID, height, length int) *Tree {
	return &Tree{st: st, refX: refX, root: root, height: height, length: length}
}

// keyOf returns the ordering key of a fragment at the reference line.
func (t *Tree) keyOf(s geom.Segment) float64 { return s.YAt(t.refX) }

func (t *Tree) segLess(a, b geom.Segment) bool {
	ka, kb := t.keyOf(a), t.keyOf(b)
	if ka != kb {
		return ka < kb
	}
	return a.ID < b.ID
}

func initNode(page []byte, typ uint8) {
	c := pager.NewBuf(page)
	c.PutU8(typ)
	c.PutU8(0)
	c.PutU16(0)
	c.PutPage(pager.InvalidPage)
	c.PutPage(pager.InvalidPage)
	c.PutPage(pager.InvalidPage)
}

type nview struct {
	page []byte
	typ  uint8
	n    int
}

func view(page []byte) nview {
	c := pager.NewBuf(page)
	typ := c.U8()
	c.Skip(1)
	return nview{page: page, typ: typ, n: int(c.U16())}
}

func (v *nview) setCount(n int) {
	v.n = n
	pager.NewBuf(v.page).Seek(2).PutU16(uint16(n))
}

func (v nview) next() pager.PageID      { return pager.NewBuf(v.page).Seek(4).Page() }
func (v nview) prev() pager.PageID      { return pager.NewBuf(v.page).Seek(8).Page() }
func (v nview) aux() pager.PageID       { return pager.NewBuf(v.page).Seek(12).Page() }
func (v nview) setNext(id pager.PageID) { pager.NewBuf(v.page).Seek(4).PutPage(id) }
func (v nview) setPrev(id pager.PageID) { pager.NewBuf(v.page).Seek(8).PutPage(id) }
func (v nview) setAux(id pager.PageID)  { pager.NewBuf(v.page).Seek(12).PutPage(id) }

func leafEntry(v nview, i int) Entry {
	return getEntry(pager.NewBuf(v.page).Seek(nodeHeader + i*EntrySize))
}

func putLeafEntry(v nview, i int, e Entry) {
	putEntry(pager.NewBuf(v.page).Seek(nodeHeader+i*EntrySize), e)
}

func leafBytes(v nview, i, count int) []byte {
	return v.page[nodeHeader+i*EntrySize : nodeHeader+(i+count)*EntrySize]
}

// internal layout: child0 u32 at nodeHeader, then n × (sepFragment, child).
func intChild(v nview, i int) pager.PageID {
	if i == 0 {
		return pager.NewBuf(v.page).Seek(nodeHeader).Page()
	}
	off := nodeHeader + 4 + (i-1)*sepSize + segrec.Size
	return pager.NewBuf(v.page).Seek(off).Page()
}

func intSep(v nview, i int) geom.Segment {
	return segrec.GetAt(v.page, nodeHeader+4+i*sepSize)
}

func setIntChild0(v nview, id pager.PageID) {
	pager.NewBuf(v.page).Seek(nodeHeader).PutPage(id)
}

func putIntSep(v nview, i int, sep geom.Segment, child pager.PageID) {
	c := pager.NewBuf(v.page).Seek(nodeHeader + 4 + i*sepSize)
	segrec.Put(c, sep)
	c.PutPage(child)
}

func intBytes(v nview, i, count int) []byte {
	return v.page[nodeHeader+4+i*sepSize : nodeHeader+4+(i+count)*sepSize]
}

// maxKey is an always-greater probe used by First.
var maxKey = math.Inf(1)
