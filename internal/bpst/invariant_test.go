package bpst

import (
	"math/rand"
	"testing"
	"testing/quick"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

// checkInvariants verifies the digest facts the query pruning relies on:
//
//  1. maxReach bounds every reach in the run (cache + subtree) and is
//     attained by a cache entry;
//  2. minCache bounds every reach below the cache;
//  3. [minBase, maxBase] bounds every base position in the run;
//  4. [minY, maxY] bounds every side-part y-extent in the run;
//  5. caches and leaves are sorted in base order and within capacity;
//  6. segment counts add up to Len.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	count := 0
	var walkSubtree func(id pager.PageID) (maxR float64, any bool)
	checkRun := func(ch childInfo) {
		cache, err := tr.readSegPage(ch.cachePage)
		if err != nil {
			t.Fatal(err)
		}
		if len(cache) != ch.cacheCount || len(cache) > tr.cacheCap {
			t.Fatalf("cache count %d recorded %d cap %d", len(cache), ch.cacheCount, tr.cacheCap)
		}
		count += len(cache)
		cacheMax, cacheMin := 0.0, 0.0
		for i, s := range cache {
			if i > 0 && geom.BaseLess(s, cache[i-1], tr.baseX, tr.side) {
				t.Fatalf("cache out of base order at %d", i)
			}
			r := tr.reach(s)
			if i == 0 {
				cacheMax, cacheMin = r, r
			} else {
				if r > cacheMax {
					cacheMax = r
				}
				if r < cacheMin {
					cacheMin = r
				}
			}
			if b := s.YAt(tr.baseX); b < ch.minBase-1e-12 || b > ch.maxBase+1e-12 {
				t.Fatalf("cache base %g outside [%g,%g]", b, ch.minBase, ch.maxBase)
			}
			lo, hi := tr.partYExtent(s)
			if lo < ch.minY-1e-12 || hi > ch.maxY+1e-12 {
				t.Fatalf("cache part extent [%g,%g] outside [%g,%g]", lo, hi, ch.minY, ch.maxY)
			}
		}
		if len(cache) > 0 {
			if cacheMax != ch.maxReach {
				t.Fatalf("maxReach %g, cache max %g", ch.maxReach, cacheMax)
			}
			if cacheMin != ch.minCache {
				t.Fatalf("minCache %g, cache min %g", ch.minCache, cacheMin)
			}
		}
		subMax, subAny := walkSubtree(ch.childPage)
		if subAny && subMax > ch.minCache {
			t.Fatalf("subtree reach %g exceeds minCache %g: cache is not the run's top", subMax, ch.minCache)
		}
	}
	walkSubtree = func(id pager.PageID) (float64, bool) {
		if id == pager.InvalidPage {
			return 0, false
		}
		n, segs, err := tr.readPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if segs != nil { // leaf
			count += len(segs)
			maxR, any := 0.0, false
			for i, s := range segs {
				if i > 0 && geom.BaseLess(s, segs[i-1], tr.baseX, tr.side) {
					t.Fatalf("leaf %d out of base order at %d", id, i)
				}
				if r := tr.reach(s); !any || r > maxR {
					maxR = r
				}
				any = true
			}
			return maxR, any
		}
		maxR, any := 0.0, false
		for _, ch := range n.children {
			checkRun(ch)
			if !any || ch.maxReach > maxR {
				maxR = ch.maxReach
			}
			any = true
		}
		return maxR, any
	}
	walkSubtree(tr.root)
	if count != tr.Len() {
		t.Fatalf("pages hold %d segments, Len says %d", count, tr.Len())
	}
}

func TestInvariantsAfterBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 15, 16, 17, 200, 3000} {
		segs := workload.FanVertical(rng, n, 5, geom.SideLeft, 40, 300)
		tr, err := Build(newStore(), 5, geom.SideLeft, segs)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
	}
}

func TestInvariantsUnderQuickOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := workload.FanVertical(rng, 150, 0, geom.SideRight, 30, 100)
		tr, err := NewEmpty(newStore(), 0, geom.SideRight)
		if err != nil {
			return false
		}
		live := map[int]bool{}
		for op := 0; op < 250; op++ {
			i := rng.Intn(len(pool))
			if live[i] {
				if _, err := tr.Delete(pool[i]); err != nil {
					return false
				}
				delete(live, i)
			} else {
				if err := tr.Insert(pool[i]); err != nil {
					return false
				}
				live[i] = true
			}
		}
		checkInvariants(t, tr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
