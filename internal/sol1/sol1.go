// Package sol1 implements the first solution of Bertino, Catania and
// Shidlovsky (EDBT 1998), Section 3: a two-level data structure (2LDS)
// answering vertical-segment (VS) queries over N non-crossing-but-touching
// (NCT) plane segments.
//
// The first level is a balanced binary tree over the segments' endpoint
// x-order. Each node v carries a vertical base line bl(v) through the
// median endpoint; the segments of v's input that meet bl(v) stay at v,
// the rest recurse left or right. At v, segments lying on bl(v) (vertical,
// collinear with it) go to an external interval tree C(v); segments
// crossing it enter two priority search trees — L(v) over left parts and
// R(v) over right parts (stored with original geometry; the crossing point
// acts as the part's base endpoint, see internal/pst). Each segment is
// represented at most twice, so the structure uses O(n) blocks; a VS query
// walks one root-to-leaf path, querying two second-level structures per
// node: O(log n · (log_B n + IL*(B)) + t) I/Os with the accelerated PSTs
// (Theorem 1).
//
// Updates follow the paper's BB[α] scheme: subtree weights are kept in the
// nodes and the highest α-unbalanced subtree on an update path is rebuilt,
// which amortizes to the Theorem 1(iii) update bound.
package sol1

import (
	"fmt"

	"segdb/internal/bpst"
	"segdb/internal/geom"
	"segdb/internal/intervaltree"
	"segdb/internal/pager"
	"segdb/internal/pst"
	"segdb/internal/segrec"
)

// Config parameterises the structure.
type Config struct {
	// B is the block capacity in segments: leaf capacity and the binary
	// PST's per-node capacity. Zero selects the page-size maximum.
	B int
	// Plain selects the binary external PST of Section 2 (Lemma 2) for
	// L(v)/R(v) instead of the accelerated one (Lemma 3 substitute).
	// The default, false, is the paper's recommended configuration; true
	// is the ablation measured in EXPERIMENTS.md.
	Plain bool
	// Alpha is the BB[α] balance parameter, 0 < α < 1 - 1/√2.
	// Zero selects 0.25.
	Alpha float64
}

func (c Config) withDefaults(pageSize int) (Config, error) {
	if c.B == 0 {
		c.B = pst.MaxCapacity(pageSize)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.25
	}
	if c.B < 1 || c.B > pst.MaxCapacity(pageSize) {
		return c, fmt.Errorf("sol1: B=%d outside [1, %d]", c.B, pst.MaxCapacity(pageSize))
	}
	if c.Alpha <= 0 || c.Alpha >= 0.2928 {
		return c, fmt.Errorf("sol1: alpha=%g outside (0, 1-1/√2)", c.Alpha)
	}
	return c, nil
}

// Index is a Solution-1 two-level structure over a pager.Store.
type Index struct {
	st     *pager.Store
	cfg    Config
	cCfg   intervaltree.Config
	root   pager.PageID
	length int
}

// Len returns the number of stored segments.
func (ix *Index) Len() int { return ix.length }

// Root returns the first-level root page: together with Config and Len it
// is the index's persistent identity (stored in a catalog page by the
// public package).
func (ix *Index) Root() pager.PageID { return ix.root }

// Config returns the configuration the index was built with.
func (ix *Index) Config() Config { return ix.cfg }

// Attach reconstructs an index handle persisted via Root/Config/Len. The
// configuration must match the one the index was built with.
func Attach(st *pager.Store, cfg Config, root pager.PageID, length int) (*Index, error) {
	cfg, err := cfg.withDefaults(st.PageSize())
	if err != nil {
		return nil, err
	}
	return &Index{
		st: st, cfg: cfg, cCfg: intervaltree.DefaultConfig(cfg.B),
		root: root, length: length,
	}, nil
}

// --- second-level handle plumbing ----------------------------------------

// lineTree abstracts the two PST implementations for L(v) and R(v). Both
// trees already have every method but QueryInto, which drops their
// differing per-tree query stats.
type lineTree interface {
	QueryInto(q geom.VQuery, emit func(geom.Segment)) error
	Insert(s geom.Segment) error
	Delete(s geom.Segment) (bool, error)
	Collect() ([]geom.Segment, error)
	Drop() error
	Len() int
	Handle() (root pager.PageID, length, sinceRebuild int)
}

type pstLine struct{ *pst.Tree }

func (a pstLine) QueryInto(q geom.VQuery, emit func(geom.Segment)) error {
	_, err := a.Query(q, emit)
	return err
}

type bpstLine struct{ *bpst.Tree }

func (a bpstLine) QueryInto(q geom.VQuery, emit func(geom.Segment)) error {
	_, err := a.Query(q, emit)
	return err
}

func (ix *Index) buildLine(baseX float64, side geom.Side, segs []geom.Segment) (lineTree, error) {
	if ix.cfg.Plain {
		t, err := pst.Build(ix.st, baseX, side, ix.cfg.B, segs)
		if err != nil {
			return nil, err
		}
		return pstLine{t}, nil
	}
	t, err := bpst.Build(ix.st, baseX, side, segs)
	if err != nil {
		return nil, err
	}
	return bpstLine{t}, nil
}

func (ix *Index) attachLine(baseX float64, side geom.Side, root pager.PageID, length, since int) lineTree {
	if ix.cfg.Plain {
		return pstLine{pst.Attach(ix.st, baseX, side, ix.cfg.B, root, length, since)}
	}
	return bpstLine{bpst.Attach(ix.st, baseX, side, root, length, since)}
}

// --- node pages -----------------------------------------------------------

// internal: type u8 | pad u8 | pad u16 | leftW u32 | rightW u32 |
//
//	baseX f64 | left u32 | right u32 |
//	C handle (intervaltree.HandleSize) |
//	L root u32, len u32, since u32 | R root u32, len u32, since u32
//
// leaf:     type u8 | pad u8 | count u16 | segs ...
const (
	typeInternal = 1
	typeLeaf     = 2
	leafHeader   = 4
)

type inode struct {
	leftW, rightW int
	baseX         float64
	left, right   pager.PageID
	c             *intervaltree.Tree
	l, r          lineTree
}

// leafCap returns how many segments fit in a leaf page, bounded by B so a
// "block" keeps its I/O-model meaning.
func (ix *Index) leafCap() int {
	cap := (ix.st.PageSize() - leafHeader) / segrec.Size
	if cap > ix.cfg.B {
		cap = ix.cfg.B
	}
	return cap
}

func (ix *Index) writeInternal(id pager.PageID, n *inode) error {
	page := make([]byte, ix.st.PageSize())
	c := pager.NewBuf(page)
	c.PutU8(typeInternal)
	c.PutU8(0)
	c.PutU16(0)
	c.PutU32(uint32(n.leftW))
	c.PutU32(uint32(n.rightW))
	c.PutF64(n.baseX)
	c.PutPage(n.left)
	c.PutPage(n.right)
	n.c.PutHandle(c)
	putLine(c, n.l)
	putLine(c, n.r)
	return ix.st.Write(id, page)
}

func putLine(c *pager.Buf, lt lineTree) {
	root, length, since := lt.Handle()
	c.PutPage(root)
	c.PutU32(uint32(length))
	c.PutU32(uint32(since))
}

func (ix *Index) writeLeaf(id pager.PageID, segs []geom.Segment) error {
	page := make([]byte, ix.st.PageSize())
	c := pager.NewBuf(page)
	c.PutU8(typeLeaf)
	c.PutU8(0)
	c.PutU16(uint16(len(segs)))
	for _, s := range segs {
		segrec.Put(c, s)
	}
	return ix.st.Write(id, page)
}

// readNode decodes either page kind: exactly one result is non-nil.
func (ix *Index) readNode(id pager.PageID) (*inode, []geom.Segment, error) {
	page, err := ix.st.Read(id)
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
		c.Skip(3)
		n := &inode{}
		n.leftW = int(c.U32())
		n.rightW = int(c.U32())
		n.baseX = c.F64()
		n.left = c.Page()
		n.right = c.Page()
		if n.c, err = intervaltree.AttachHandle(ix.st, ix.cCfg, c); err != nil {
			return nil, nil, err
		}
		n.l = ix.attachLine(n.baseX, geom.SideLeft, pager.PageID(c.U32()), int(c.U32()), int(c.U32()))
		n.r = ix.attachLine(n.baseX, geom.SideRight, pager.PageID(c.U32()), int(c.U32()), int(c.U32()))
		return n, nil, nil
	default:
		return nil, nil, fmt.Errorf("sol1: page %d has unknown type %d", id, typ)
	}
}

// cItem converts a vertical on-line segment to its C(v) interval.
func cItem(s geom.Segment) intervaltree.Item {
	return intervaltree.Item{Lo: s.MinY(), Hi: s.MaxY(), Seg: s}
}

// onLine reports whether s lies on the vertical line x = m.
func onLine(s geom.Segment, m float64) bool {
	return s.A.X == m && s.B.X == m
}
