// Package bptree implements an external-memory B+-tree over a pager.Store:
// the classical O(log_B n + t) ordered index [Comer 1979] cited as [7] in
// the paper. Within this module it serves three masters: the multislab
// lists of the Solution-2 segment tree G (Section 4.2), the endpoint
// indexes of the baselines, and utility ordered storage in tests.
//
// Keys are (float64, uint64) pairs — a coordinate plus an application tie-
// breaker — so duplicate coordinates order deterministically. Values are
// fixed-size byte records whose size is chosen at tree creation.
package bptree

import (
	"errors"
	"fmt"
	"math"

	"segdb/internal/pager"
)

// Key orders entries by coordinate K, breaking ties by ID.
type Key struct {
	K  float64
	ID uint64
}

// Less reports strict order between keys.
func (k Key) Less(o Key) bool {
	if k.K != o.K {
		return k.K < o.K
	}
	return k.ID < o.ID
}

// MinKey is below every key produced by the index structures.
func MinKey() Key { return Key{K: math.Inf(-1)} }

// Item is a key/value pair. Val must have the tree's value size.
type Item struct {
	Key Key
	Val []byte
}

const (
	nodeLeaf     = 1
	nodeInternal = 2

	// Header: type(1) pad(1) count(2) next(4) prev(4).
	headerSize = 12
	keySize    = 16 // K float64 + ID uint64
	childSize  = 4
)

// Tree is the B+-tree handle. The handle itself lives in memory (a real
// system would root it in a catalog page); all entries live in pages.
type Tree struct {
	st      *pager.Store
	valSize int
	root    pager.PageID
	height  int // 1 = root is a leaf
	length  int
	leafCap int
	intCap  int
}

// ErrValSize reports a value whose length differs from the tree's value size.
var ErrValSize = errors.New("bptree: value has wrong size")

// New creates an empty tree storing values of valSize bytes.
func New(st *pager.Store, valSize int) (*Tree, error) {
	t, err := shape(st, valSize)
	if err != nil {
		return nil, err
	}
	root := st.Alloc()
	page := make([]byte, st.PageSize())
	initNode(page, nodeLeaf)
	if err := st.Write(root, page); err != nil {
		return nil, err
	}
	t.root = root
	t.height = 1
	return t, nil
}

func shape(st *pager.Store, valSize int) (*Tree, error) {
	if valSize < 0 {
		return nil, fmt.Errorf("bptree: negative value size %d", valSize)
	}
	t := &Tree{
		st:      st,
		valSize: valSize,
		leafCap: (st.PageSize() - headerSize) / (keySize + valSize),
		intCap:  (st.PageSize() - headerSize - childSize) / (keySize + childSize),
	}
	if t.leafCap < 2 || t.intCap < 2 {
		return nil, fmt.Errorf("bptree: page size %d too small for value size %d",
			st.PageSize(), valSize)
	}
	return t, nil
}

// Attach reconstructs a handle for a tree whose pages already exist,
// from the triple persisted by Handle. Structures that keep B+-trees
// inside their own node pages (the interval tree's boundary lists, the
// Solution-2 multislab lists) store handles this way.
func Attach(st *pager.Store, valSize int, root pager.PageID, height, length int) (*Tree, error) {
	t, err := shape(st, valSize)
	if err != nil {
		return nil, err
	}
	if root == pager.InvalidPage || height < 1 {
		return nil, fmt.Errorf("bptree: attach to invalid handle (root=%d height=%d)", root, height)
	}
	t.root = root
	t.height = height
	t.length = length
	return t, nil
}

// Handle returns the persistent identity of the tree: its root page,
// height and length. The triple changes on mutation, so owners must
// re-persist it after every Insert or Delete.
func (t *Tree) Handle() (root pager.PageID, height, length int) {
	return t.root, t.height, t.length
}

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.length }

// Height returns the tree height in levels (1 = single leaf).
func (t *Tree) Height() int { return t.height }

func initNode(page []byte, typ uint8) {
	c := pager.NewBuf(page)
	c.PutU8(typ)
	c.PutU8(0)
	c.PutU16(0)
	c.PutPage(pager.InvalidPage)
	c.PutPage(pager.InvalidPage)
}

type nodeView struct {
	page []byte
	typ  uint8
	n    int
}

func view(page []byte) nodeView {
	c := pager.NewBuf(page)
	typ := c.U8()
	c.Skip(1)
	n := int(c.U16())
	return nodeView{page: page, typ: typ, n: n}
}

func (v *nodeView) setCount(n int) {
	v.n = n
	pager.NewBuf(v.page).Seek(2).PutU16(uint16(n))
}

func (v nodeView) next() pager.PageID { return pager.NewBuf(v.page).Seek(4).Page() }
func (v nodeView) prev() pager.PageID { return pager.NewBuf(v.page).Seek(8).Page() }

func (v nodeView) setNext(id pager.PageID) { pager.NewBuf(v.page).Seek(4).PutPage(id) }
func (v nodeView) setPrev(id pager.PageID) { pager.NewBuf(v.page).Seek(8).PutPage(id) }

// Leaf entry i occupies headerSize + i*(keySize+valSize).
func (t *Tree) leafKey(v nodeView, i int) Key {
	c := pager.NewBuf(v.page).Seek(headerSize + i*(keySize+t.valSize))
	return Key{K: c.F64(), ID: c.U64()}
}

func (t *Tree) leafVal(v nodeView, i int) []byte {
	off := headerSize + i*(keySize+t.valSize) + keySize
	out := make([]byte, t.valSize)
	copy(out, v.page[off:off+t.valSize])
	return out
}

func (t *Tree) putLeafEntry(v nodeView, i int, k Key, val []byte) {
	c := pager.NewBuf(v.page).Seek(headerSize + i*(keySize+t.valSize))
	c.PutF64(k.K)
	c.PutU64(k.ID)
	copy(v.page[c.Pos():c.Pos()+t.valSize], val)
}

func (t *Tree) leafEntryBytes(v nodeView, i, count int) []byte {
	sz := keySize + t.valSize
	return v.page[headerSize+i*sz : headerSize+(i+count)*sz]
}

// Internal layout: child0 at headerSize, then n × (key, child).
func (t *Tree) intChild(v nodeView, i int) pager.PageID {
	if i == 0 {
		return pager.NewBuf(v.page).Seek(headerSize).Page()
	}
	off := headerSize + childSize + (i-1)*(keySize+childSize) + keySize
	return pager.NewBuf(v.page).Seek(off).Page()
}

func (t *Tree) intKey(v nodeView, i int) Key {
	off := headerSize + childSize + i*(keySize+childSize)
	c := pager.NewBuf(v.page).Seek(off)
	return Key{K: c.F64(), ID: c.U64()}
}

func (t *Tree) setIntChild0(v nodeView, id pager.PageID) {
	pager.NewBuf(v.page).Seek(headerSize).PutPage(id)
}

func (t *Tree) putIntEntry(v nodeView, i int, k Key, child pager.PageID) {
	off := headerSize + childSize + i*(keySize+childSize)
	c := pager.NewBuf(v.page).Seek(off)
	c.PutF64(k.K)
	c.PutU64(k.ID)
	c.PutPage(child)
}

func (t *Tree) intEntryBytes(v nodeView, i, count int) []byte {
	sz := keySize + childSize
	return v.page[headerSize+childSize+i*sz : headerSize+childSize+(i+count)*sz]
}

// childIndex returns which child of internal node v covers key k for
// insertion: the largest i with key_i ≤ k (children left of key_0 at i = 0).
func (t *Tree) childIndex(v nodeView, k Key) int {
	lo, hi := 0, v.n // find count of keys ≤ k
	for lo < hi {
		mid := (lo + hi) / 2
		if !k.Less(t.intKey(v, mid)) { // key_mid ≤ k
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndexLB returns the child to descend into when looking for the
// FIRST entry ≥ k: the count of separator keys strictly below k. Exact-
// duplicate keys may span leaves, and a separator equal to k must send the
// search left of it.
func (t *Tree) childIndexLB(v nodeView, k Key) int {
	lo, hi := 0, v.n // find count of keys < k
	for lo < hi {
		mid := (lo + hi) / 2
		if t.intKey(v, mid).Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex returns the position of the first entry with key ≥ k.
func (t *Tree) leafIndex(v nodeView, k Key) int {
	lo, hi := 0, v.n
	for lo < hi {
		mid := (lo + hi) / 2
		if t.leafKey(v, mid).Less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
