package pst

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

// checkInvariants walks the whole tree verifying the structural facts the
// query algorithms rely on:
//
//  1. the copied child reaches (leftTop/rightTop) equal the true maximum
//     reach of the corresponding subtree (reach pruning exactness);
//  2. low is an upper bound on every reach below the node;
//  3. minBase/maxBase bound every base position in the subtree (window
//     pruning soundness);
//  4. node blocks are sorted in base order and within capacity;
//  5. the segment count adds up to Len.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	count := 0
	var walk func(id pager.PageID) (maxR, minB, maxB float64, any bool)
	walk = func(id pager.PageID) (float64, float64, float64, bool) {
		if id == pager.InvalidPage {
			return noChild, 0, 0, false
		}
		n, err := tr.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.count != len(n.segs) || n.count > tr.capacity {
			t.Fatalf("node %d: count %d, cap %d", id, n.count, tr.capacity)
		}
		count += n.count
		maxR, minB, maxB := noChild, 0.0, 0.0
		any := false
		for i, s := range n.segs {
			if i > 0 && geom.BaseLess(s, n.segs[i-1], tr.baseX, tr.side) {
				t.Fatalf("node %d: block out of base order at %d", id, i)
			}
			r := tr.reach(s)
			b := s.YAt(tr.baseX)
			if !any || r > maxR {
				maxR = r
			}
			if !any {
				minB, maxB = b, b
			} else {
				if b < minB {
					minB = b
				}
				if b > maxB {
					maxB = b
				}
			}
			any = true
		}
		for side, child := range map[string]pager.PageID{"left": n.left, "right": n.right} {
			cMax, cMinB, cMaxB, cAny := walk(child)
			copied := n.leftTop
			if side == "right" {
				copied = n.rightTop
			}
			if !cAny {
				if child != pager.InvalidPage {
					t.Fatalf("node %d: empty child page %d", id, child)
				}
				continue
			}
			if copied != cMax {
				t.Fatalf("node %d: %sTop copy %g, subtree max %g", id, side, copied, cMax)
			}
			if cMax > n.low {
				t.Fatalf("node %d: low %g below child max %g", id, n.low, cMax)
			}
			if cMinB < minB || !any {
				minB = cMinB
			}
			if cMaxB > maxB || !any {
				maxB = cMaxB
			}
			any = true
		}
		if any && (minB < n.minBase-1e-12 || maxB > n.maxBase+1e-12) {
			t.Fatalf("node %d: base range [%g,%g] outside recorded [%g,%g]",
				id, minB, maxB, n.minBase, n.maxBase)
		}
		return maxR, minB, maxB, any
	}
	walk(tr.root)
	if count != tr.Len() {
		t.Fatalf("nodes hold %d segments, Len says %d", count, tr.Len())
	}
}

func TestInvariantsAfterBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
		segs := workload.FanVertical(rng, n, 10, geom.SideRight, 40, 200)
		tr, err := Build(newStore(), 10, geom.SideRight, 8, segs)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, tr)
	}
}

func TestInvariantsUnderQuickOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := workload.FanVertical(rng, 120, 0, geom.SideRight, 30, 80)
		tr, err := NewEmpty(newStore(), 0, geom.SideRight, 4)
		if err != nil {
			return false
		}
		live := map[int]bool{}
		for op := 0; op < 200; op++ {
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
		// A full invariant walk at the end of each random trajectory
		// (failures abort the whole test with the offending detail).
		checkInvariants(t, tr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsFailureMessagesUsable(t *testing.T) {
	// Not a behavioural test: just pins that the checker walks an empty
	// and a single-node tree without blowing up.
	tr, err := NewEmpty(newStore(), 0, geom.SideLeft, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if err := tr.Insert(geom.Seg(1, -3, 2, 0, 5)); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, tr)
	if fmt.Sprintf("%v", tr.side) != "left" {
		t.Fatal("side formatting changed")
	}
}
