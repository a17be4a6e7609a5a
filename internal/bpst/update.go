package bpst

import (
	"fmt"
	"sort"

	"segdb/internal/geom"
	"segdb/internal/pager"
)

// Insert adds a line-based segment. A segment out-reaching a child's
// shallowest cached entry joins that cache, displacing the shallowest
// entry downward; leaves that overflow are rebuilt in place. Balance is
// restored by the amortized whole-tree rebuild, the same substitution for
// the P-range update machinery as in package pst (DESIGN.md §5).
func (t *Tree) Insert(s geom.Segment) error {
	if !geom.SpansX(s, t.baseX) {
		return errNotLineBased(t, s)
	}
	if t.root == pager.InvalidPage {
		id := t.st.Alloc()
		if err := t.writeLeaf(id, []geom.Segment{s}); err != nil {
			return err
		}
		t.root = id
	} else {
		newRoot, err := t.insertRec(t.root, s)
		if err != nil {
			return err
		}
		t.root = newRoot
	}
	t.length++
	t.sinceRebuild++
	if t.sinceRebuild > t.length/2+t.cacheCap {
		return t.Rebuild()
	}
	return nil
}

func errNotLineBased(t *Tree, s geom.Segment) error {
	return fmt.Errorf("bpst: %v is not line-based on x=%g side %v", s, t.baseX, t.side)
}

func (t *Tree) insertRec(id pager.PageID, s geom.Segment) (pager.PageID, error) {
	n, segs, err := t.readPage(id)
	if err != nil {
		return id, err
	}
	if segs != nil { // leaf
		pos := sort.Search(len(segs), func(i int) bool { return geom.BaseLess(s, segs[i], t.baseX, t.side) })
		segs = append(segs, geom.Segment{})
		copy(segs[pos+1:], segs[pos:])
		segs[pos] = s
		if len(segs) <= t.cacheCap {
			return id, t.writeLeaf(id, segs)
		}
		// Overflow: rebuild this leaf as a subtree.
		t.st.Free(id)
		return t.buildRec(segs)
	}

	ci := t.routeChild(n, s)
	ch := &n.children[ci]
	b := s.YAt(t.baseX)
	if b < ch.minBase {
		ch.minBase = b
	}
	if b > ch.maxBase {
		ch.maxBase = b
	}
	r := t.reach(s)
	if r > ch.maxReach {
		ch.maxReach = r
	}
	lo, hi := t.partYExtent(s)
	if lo < ch.minY {
		ch.minY = lo
	}
	if hi > ch.maxY {
		ch.maxY = hi
	}

	if r >= ch.minCache || ch.cacheCount < t.cacheCap {
		cache, err := t.readSegPage(ch.cachePage)
		if err != nil {
			return id, err
		}
		pos := sort.Search(len(cache), func(i int) bool { return geom.BaseLess(s, cache[i], t.baseX, t.side) })
		cache = append(cache, geom.Segment{})
		copy(cache[pos+1:], cache[pos:])
		cache[pos] = s
		if len(cache) > t.cacheCap {
			ev := t.evictMin(&cache)
			if ch.childPage == pager.InvalidPage {
				leaf := t.st.Alloc()
				if err := t.writeLeaf(leaf, []geom.Segment{ev}); err != nil {
					return id, err
				}
				ch.childPage = leaf
			} else {
				if ch.childPage, err = t.insertRec(ch.childPage, ev); err != nil {
					return id, err
				}
			}
		}
		ch.cacheCount = len(cache)
		ch.minCache = t.minReach(cache)
		ch.maxReach = t.maxReach(cache)
		if err := t.writeCache(ch.cachePage, cache); err != nil {
			return id, err
		}
	} else {
		if ch.childPage == pager.InvalidPage {
			leaf := t.st.Alloc()
			if err := t.writeLeaf(leaf, []geom.Segment{s}); err != nil {
				return id, err
			}
			ch.childPage = leaf
		} else if ch.childPage, err = t.insertRec(ch.childPage, s); err != nil {
			return id, err
		}
	}
	return id, t.writeDigest(id, n)
}

// routeChild picks the child run for a segment by base position: the
// first run whose range ends at or after it, else the last run.
func (t *Tree) routeChild(n *dnode, s geom.Segment) int {
	b := s.YAt(t.baseX)
	for i := range n.children {
		if b <= n.children[i].maxBase {
			return i
		}
	}
	return len(n.children) - 1
}

func (t *Tree) evictMin(cache *[]geom.Segment) geom.Segment {
	c := *cache
	mi := 0
	for i := range c {
		if t.reach(c[i]) < t.reach(c[mi]) {
			mi = i
		}
	}
	out := c[mi]
	*cache = append(c[:mi], c[mi+1:]...)
	return out
}

func (t *Tree) minReach(segs []geom.Segment) float64 {
	m := t.reach(segs[0])
	for _, s := range segs[1:] {
		if r := t.reach(s); r < m {
			m = r
		}
	}
	return m
}

func (t *Tree) maxReach(segs []geom.Segment) float64 {
	m := t.reach(segs[0])
	for _, s := range segs[1:] {
		if r := t.reach(s); r > m {
			m = r
		}
	}
	return m
}

// Delete removes the segment matching s's ID and geometry, reporting
// whether it was found.
func (t *Tree) Delete(s geom.Segment) (bool, error) {
	found, newRoot, err := t.deleteRec(t.root, s)
	if err != nil {
		return false, err
	}
	if found {
		t.root = newRoot
		t.length--
	}
	return found, nil
}

func (t *Tree) deleteRec(id pager.PageID, s geom.Segment) (bool, pager.PageID, error) {
	if id == pager.InvalidPage {
		return false, id, nil
	}
	n, segs, err := t.readPage(id)
	if err != nil {
		return false, id, err
	}
	if segs != nil { // leaf
		at := findSeg(segs, s)
		if at < 0 {
			return false, id, nil
		}
		segs = append(segs[:at], segs[at+1:]...)
		if len(segs) == 0 {
			t.st.Free(id)
			return true, pager.InvalidPage, nil
		}
		return true, id, t.writeLeaf(id, segs)
	}

	b := s.YAt(t.baseX)
	for ci := range n.children {
		ch := &n.children[ci]
		if b < ch.minBase || b > ch.maxBase {
			continue
		}
		cache, err := t.readSegPage(ch.cachePage)
		if err != nil {
			return false, id, err
		}
		if at := findSeg(cache, s); at >= 0 {
			cache = append(cache[:at], cache[at+1:]...)
			// Refill from below so the cache keeps holding the run's top.
			if ch.childPage != pager.InvalidPage {
				pulled, ok, newChild, err := t.pullTop(ch.childPage)
				if err != nil {
					return false, id, err
				}
				ch.childPage = newChild
				if ok {
					pos := sort.Search(len(cache), func(i int) bool { return geom.BaseLess(pulled, cache[i], t.baseX, t.side) })
					cache = append(cache, geom.Segment{})
					copy(cache[pos+1:], cache[pos:])
					cache[pos] = pulled
				}
			}
			if len(cache) == 0 && ch.childPage == pager.InvalidPage {
				t.st.Free(ch.cachePage)
				n.children = append(n.children[:ci], n.children[ci+1:]...)
				if len(n.children) == 0 {
					t.st.Free(id)
					return true, pager.InvalidPage, nil
				}
				return true, id, t.writeDigest(id, n)
			}
			if err := t.writeCache(ch.cachePage, cache); err != nil {
				return false, id, err
			}
			ch.cacheCount = len(cache)
			if len(cache) > 0 {
				ch.minCache = t.minReach(cache)
				ch.maxReach = t.maxReach(cache)
			} else {
				ch.minCache, ch.maxReach = 0, 0
			}
			return true, id, t.writeDigest(id, n)
		}
		found, newChild, err := t.deleteRec(ch.childPage, s)
		if err != nil {
			return false, id, err
		}
		if found {
			ch.childPage = newChild
			return true, id, t.writeDigest(id, n)
		}
	}
	return false, id, nil
}

func findSeg(segs []geom.Segment, s geom.Segment) int {
	for i, e := range segs {
		if e.ID == s.ID && e.A == s.A && e.B == s.B {
			return i
		}
	}
	return -1
}

// pullTop removes and returns the farthest-reaching segment of a subtree.
func (t *Tree) pullTop(id pager.PageID) (geom.Segment, bool, pager.PageID, error) {
	n, segs, err := t.readPage(id)
	if err != nil {
		return geom.Segment{}, false, id, err
	}
	if segs != nil {
		if len(segs) == 0 {
			t.st.Free(id)
			return geom.Segment{}, false, pager.InvalidPage, nil
		}
		mi := 0
		for i := range segs {
			if t.reach(segs[i]) > t.reach(segs[mi]) {
				mi = i
			}
		}
		out := segs[mi]
		segs = append(segs[:mi], segs[mi+1:]...)
		if len(segs) == 0 {
			t.st.Free(id)
			return out, true, pager.InvalidPage, nil
		}
		return out, true, id, t.writeLeaf(id, segs)
	}

	best := -1
	for ci := range n.children {
		if n.children[ci].cacheCount == 0 {
			continue
		}
		if best < 0 || n.children[ci].maxReach > n.children[best].maxReach {
			best = ci
		}
	}
	if best < 0 {
		t.st.Free(id)
		return geom.Segment{}, false, pager.InvalidPage, nil
	}
	ch := &n.children[best]
	cache, err := t.readSegPage(ch.cachePage)
	if err != nil {
		return geom.Segment{}, false, id, err
	}
	mi := 0
	for i := range cache {
		if t.reach(cache[i]) > t.reach(cache[mi]) {
			mi = i
		}
	}
	out := cache[mi]
	cache = append(cache[:mi], cache[mi+1:]...)
	if ch.childPage != pager.InvalidPage {
		pulled, ok, newChild, err := t.pullTop(ch.childPage)
		if err != nil {
			return geom.Segment{}, false, id, err
		}
		ch.childPage = newChild
		if ok {
			pos := sort.Search(len(cache), func(i int) bool { return geom.BaseLess(pulled, cache[i], t.baseX, t.side) })
			cache = append(cache, geom.Segment{})
			copy(cache[pos+1:], cache[pos:])
			cache[pos] = pulled
		}
	}
	if len(cache) == 0 && ch.childPage == pager.InvalidPage {
		t.st.Free(ch.cachePage)
		n.children = append(n.children[:best], n.children[best+1:]...)
		if len(n.children) == 0 {
			t.st.Free(id)
			return out, true, pager.InvalidPage, nil
		}
		return out, true, id, t.writeDigest(id, n)
	}
	if err := t.writeCache(ch.cachePage, cache); err != nil {
		return geom.Segment{}, false, id, err
	}
	ch.cacheCount = len(cache)
	if len(cache) > 0 {
		ch.minCache = t.minReach(cache)
		ch.maxReach = t.maxReach(cache)
	} else {
		ch.minCache, ch.maxReach = 0, 0
	}
	return out, true, id, t.writeDigest(id, n)
}

// Rebuild reconstructs the tree from its contents, restoring balance and
// cache occupancy.
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
