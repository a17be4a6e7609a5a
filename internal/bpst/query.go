package bpst

import (
	"math"

	"segdb/internal/geom"
	"segdb/internal/pager"
)

// QueryStats reports per-query work for the empirical validation of the
// Lemma-3 cost shape (O(log_B n + t) page reads).
type QueryStats struct {
	PagesRead int // digest + cache + leaf pages touched
	Reported  int
}

// Query reports every stored segment intersected by the vertical query q.
// Pruning combines the digest's reach summaries (a child whose farthest
// reach falls short of the query line holds no answers; a child whose
// shallowest cached reach falls short has none *below* the cache) with the
// same base-position window as package pst.
func (t *Tree) Query(q geom.VQuery, emit func(geom.Segment)) (QueryStats, error) {
	var stats QueryStats
	qr := geom.QueryReach(q.X, t.baseX, t.side)
	if qr < 0 || t.root == pager.InvalidPage {
		return stats, nil
	}
	winLo, winHi := math.Inf(-1), math.Inf(1)

	scan := func(segs []geom.Segment) {
		for _, s := range segs {
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
				stats.Reported++
				emit(s)
			}
		}
	}

	var visit func(id pager.PageID) error
	visit = func(id pager.PageID) error {
		n, segs, err := t.readPage(id)
		if err != nil {
			return err
		}
		stats.PagesRead++
		if segs != nil {
			scan(segs)
			return nil
		}
		for _, ch := range n.children {
			// Reach pruning from the digest alone: no page read.
			if ch.maxReach < qr {
				continue
			}
			// Y-extent pruning: nothing in the run enters the query's y
			// range anywhere, let alone at x0.
			if ch.maxY < q.YLo || ch.minY > q.YHi {
				continue
			}
			// Window pruning: the run's base range is disjoint from the
			// region that can still hold answers.
			if ch.maxBase < winLo || ch.minBase > winHi {
				continue
			}
			cache, err := t.readSegPage(ch.cachePage)
			if err != nil {
				return err
			}
			stats.PagesRead++
			scan(cache)
			// Below the cache only if something below can reach the query
			// line and the window still admits this run.
			if ch.childPage == pager.InvalidPage || ch.minCache < qr {
				continue
			}
			if ch.maxBase < winLo || ch.minBase > winHi {
				continue
			}
			if err := visit(ch.childPage); err != nil {
				return err
			}
		}
		return nil
	}
	return stats, visit(t.root)
}

// CollectQuery returns the query result as a slice.
func (t *Tree) CollectQuery(q geom.VQuery) ([]geom.Segment, error) {
	var out []geom.Segment
	_, err := t.Query(q, func(s geom.Segment) { out = append(out, s) })
	return out, err
}
