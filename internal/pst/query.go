package pst

import (
	"math"

	"segdb/internal/geom"
	"segdb/internal/pager"
)

// QueryStats reports the work a single query did, for the empirical
// validation of Lemma 1/Lemma 2 (the O(log n + t) node-visit bound).
type QueryStats struct {
	NodesVisited int
	Reported     int
}

// Query reports every stored segment intersected by the vertical query
// segment q, which must be parallel to the base line on the tree's side.
// Results arrive in no particular order (block contents interleave with
// subtree contents, as in the paper's Report).
//
// The traversal scans a node's block, then narrows the window of base
// positions that can still hold answers: a reaching segment crossing the
// query line below the range proves all answers lie base-above it, and
// symmetrically. Subtrees are pruned by the window and by the copied
// child reaches (the paper's v.left / v.right top copies).
func (t *Tree) Query(q geom.VQuery, emit func(geom.Segment)) (QueryStats, error) {
	var stats QueryStats
	qr := geom.QueryReach(q.X, t.baseX, t.side)
	if qr < 0 || t.root == pager.InvalidPage {
		return stats, nil
	}
	winLo, winHi := math.Inf(-1), math.Inf(1)

	var visit func(id pager.PageID) error
	visit = func(id pager.PageID) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		stats.NodesVisited++
		for _, s := range n.segs { // base order
			if t.reach(s) < qr {
				continue
			}
			y := s.YAt(q.X)
			switch {
			case y < q.YLo:
				// Answers lie base-above s (order preservation).
				if b := s.YAt(t.baseX); b > winLo {
					winLo = b
				}
			case y > q.YHi:
				if b := s.YAt(t.baseX); b < winHi {
					winHi = b
				}
			default:
				stats.Reported++
				emit(s)
			}
		}
		if n.left != pager.InvalidPage && n.leftTop >= qr &&
			n.splitBase >= winLo && n.minBase <= winHi {
			if err := visit(n.left); err != nil {
				return err
			}
		}
		if n.right != pager.InvalidPage && n.rightTop >= qr &&
			n.maxBase >= winLo && n.splitBase <= winHi {
			if err := visit(n.right); err != nil {
				return err
			}
		}
		return nil
	}
	return stats, visit(t.root)
}

// CollectQuery returns the query result as a slice in base-line order.
func (t *Tree) CollectQuery(q geom.VQuery) ([]geom.Segment, error) {
	var out []geom.Segment
	_, err := t.Query(q, func(s geom.Segment) { out = append(out, s) })
	return out, err
}

// FindLeftmost returns the intersected segment that is first in base-line
// order — the paper's deepest-leftmost segment located by function Find —
// or ok = false if the query intersects nothing.
func (t *Tree) FindLeftmost(q geom.VQuery) (geom.Segment, bool, error) {
	return t.findExtreme(q, false)
}

// FindRightmost is the symmetric version of FindLeftmost (the paper runs
// Find twice, with "left" and "right" interchanged).
func (t *Tree) FindRightmost(q geom.VQuery) (geom.Segment, bool, error) {
	return t.findExtreme(q, true)
}

func (t *Tree) findExtreme(q geom.VQuery, rightmost bool) (geom.Segment, bool, error) {
	var best geom.Segment
	found := false
	qr := geom.QueryReach(q.X, t.baseX, t.side)
	if qr < 0 || t.root == pager.InvalidPage {
		return best, false, nil
	}
	winLo, winHi := math.Inf(-1), math.Inf(1)

	better := func(s geom.Segment) bool {
		if !found {
			return true
		}
		if rightmost {
			return geom.BaseLess(best, s, t.baseX, t.side)
		}
		return geom.BaseLess(s, best, t.baseX, t.side)
	}

	var visit func(id pager.PageID) error
	visit = func(id pager.PageID) error {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, s := range n.segs {
			if t.reach(s) < qr {
				continue
			}
			y := s.YAt(q.X)
			switch {
			case y < q.YLo:
				if b := s.YAt(t.baseX); b > winLo {
					winLo = b
				}
			case y > q.YHi:
				if b := s.YAt(t.baseX); b < winHi {
					winHi = b
				}
			default:
				if better(s) {
					best, found = s, true
				}
			}
		}
		// A found candidate prunes everything on its far side.
		lo, hi := winLo, winHi
		if found {
			if rightmost {
				lo = math.Max(lo, best.YAt(t.baseX))
			} else {
				hi = math.Min(hi, best.YAt(t.baseX))
			}
		}
		type childRef struct {
			id      pager.PageID
			top     float64
			rangeLo float64
			rangeHi float64
		}
		kids := []childRef{
			{n.left, n.leftTop, n.minBase, n.splitBase},
			{n.right, n.rightTop, n.splitBase, n.maxBase},
		}
		if rightmost {
			kids[0], kids[1] = kids[1], kids[0]
		}
		for _, k := range kids {
			if k.id == pager.InvalidPage || k.top < qr {
				continue
			}
			// Recompute bounds: earlier child visits may have found a
			// better candidate or narrowed the window.
			lo, hi = winLo, winHi
			if found {
				if rightmost {
					lo = math.Max(lo, best.YAt(t.baseX))
				} else {
					hi = math.Min(hi, best.YAt(t.baseX))
				}
			}
			if k.rangeHi < lo || k.rangeLo > hi {
				continue
			}
			if err := visit(k.id); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(t.root); err != nil {
		return best, false, err
	}
	return best, found, nil
}
