package pst

import (
	"math"
	"math/rand"
	"testing"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

const testPageSize = 64 + 48*8 // fits capacity 8 comfortably

func newStore() *pager.Store { return pager.MustOpenMem(testPageSize, 32) }

func buildFan(t *testing.T, seed int64, n int, side geom.Side) (*Tree, []geom.Segment) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	segs := workload.FanVertical(rng, n, 100, side, 50, 200)
	tr, err := Build(newStore(), 100, side, 8, segs)
	if err != nil {
		t.Fatal(err)
	}
	return tr, segs
}

func sameSet(t *testing.T, got []geom.Segment, want []geom.Segment, label string) {
	t.Helper()
	seen := map[uint64]bool{}
	wantIDs := map[uint64]bool{}
	for _, s := range want {
		wantIDs[s.ID] = true
	}
	for _, s := range got {
		if seen[s.ID] {
			t.Fatalf("%s: duplicate id %d", label, s.ID)
		}
		seen[s.ID] = true
		if !wantIDs[s.ID] {
			t.Fatalf("%s: spurious id %d", label, s.ID)
		}
	}
	if len(seen) != len(wantIDs) {
		t.Fatalf("%s: got %d, want %d", label, len(seen), len(wantIDs))
	}
}

func TestBuildRejectsNonSpanning(t *testing.T) {
	bad := []geom.Segment{geom.Seg(1, 0, 0, 5, 5)} // entirely left of x=100
	if _, err := Build(newStore(), 100, geom.SideLeft, 8, bad); err == nil {
		t.Fatal("Build accepted a segment that does not meet the base line")
	}
}

// TestSpanningSegments stores whole segments that cross the base line —
// the Solution-1/2 usage, where each crossing segment enters the left and
// right trees with the crossing point as its logical base endpoint.
func TestSpanningSegments(t *testing.T) {
	segs := []geom.Segment{
		geom.Seg(1, -10, 0, 10, 20),  // crosses x=0 at y=10
		geom.Seg(2, -5, 30, 15, 30),  // crosses at y=30
		geom.Seg(3, -20, 50, -1, 50), // left of the line: does not span
	}
	if _, err := Build(newStore(), 0, geom.SideLeft, 4, segs); err == nil {
		t.Fatal("Build accepted segment 3, which does not meet x=0")
	}
	tr, err := Build(newStore(), 0, geom.SideLeft, 4, segs[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    geom.VQuery
		want []uint64
	}{
		{geom.VSeg(-5, 0, 10), []uint64{1}},  // left part of 1: y=5 at x=-5
		{geom.VSeg(-5, 25, 35), []uint64{2}}, // 2 is horizontal at y=30
		{geom.VSeg(-5, 0, 35), []uint64{1, 2}},
		{geom.VSeg(0, 5, 35), []uint64{1, 2}}, // on the base line
		{geom.VSeg(-15, -100, 100), nil},      // beyond 2's reach... and 1's
	} {
		got, err := tr.CollectQuery(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		ids := map[uint64]bool{}
		for _, s := range got {
			ids[s.ID] = true
			// Results carry original (unclipped) geometry.
			found := false
			for _, orig := range segs[:2] {
				if s == orig {
					found = true
				}
			}
			if !found {
				t.Fatalf("%v: result %v is not an original segment", tc.q, s)
			}
		}
		if len(ids) != len(tc.want) {
			t.Fatalf("%v: got %d results, want %d", tc.q, len(ids), len(tc.want))
		}
		for _, id := range tc.want {
			if !ids[id] {
				t.Fatalf("%v: missing id %d", tc.q, id)
			}
		}
	}
}

func TestBuildRejectsBadCapacity(t *testing.T) {
	if _, err := Build(newStore(), 0, geom.SideLeft, 0, nil); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := Build(newStore(), 0, geom.SideLeft, 10000, nil); err == nil {
		t.Error("oversized capacity accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := NewEmpty(newStore(), 0, geom.SideRight, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.CollectQuery(geom.VSeg(5, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("query on empty = %v", got)
	}
	if _, found, _ := tr.FindLeftmost(geom.VSeg(5, 0, 10)); found {
		t.Fatal("FindLeftmost found something in an empty tree")
	}
}

func TestQueryMatchesNaiveBothSides(t *testing.T) {
	for _, side := range []geom.Side{geom.SideLeft, geom.SideRight} {
		tr, segs := buildFan(t, int64(10+side), 700, side)
		rng := rand.New(rand.NewSource(99))
		for q := 0; q < 300; q++ {
			x := 100 + float64(side)*rng.Float64()*60
			y := rng.Float64()*220 - 10
			h := rng.Float64() * 40
			query := geom.VSeg(x, y, y+h)
			got, err := tr.CollectQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, got, query.FilterHits(segs), "query")
		}
	}
}

func TestQueryOtherSideIsEmpty(t *testing.T) {
	tr, _ := buildFan(t, 1, 100, geom.SideLeft)
	got, err := tr.CollectQuery(geom.VSeg(101, -1000, 1000)) // right of base line
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("wrong-side query returned %d segments", len(got))
	}
}

func TestQueryOnBaseLine(t *testing.T) {
	tr, segs := buildFan(t, 2, 300, geom.SideLeft)
	query := geom.VSeg(100, 50, 120) // exactly the base line
	got, err := tr.CollectQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, query.FilterHits(segs), "base-line query")
}

func TestRayAndLineQueries(t *testing.T) {
	tr, segs := buildFan(t, 3, 400, geom.SideRight)
	queries := []geom.VQuery{
		geom.VLine(120),
		geom.VRayUp(115, 80),
		geom.VRayDown(110, 100),
	}
	for _, q := range queries {
		got, err := tr.CollectQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, q.FilterHits(segs), q.String())
	}
}

func TestQueryStatsReported(t *testing.T) {
	tr, segs := buildFan(t, 4, 500, geom.SideLeft)
	q := geom.VSeg(95, 0, 200)
	stats, err := tr.Query(q, func(geom.Segment) {})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(q.FilterHits(segs)); stats.Reported != want {
		t.Fatalf("stats.Reported = %d, want %d", stats.Reported, want)
	}
	if stats.NodesVisited < 1 {
		t.Fatal("no nodes visited")
	}
}

func TestFindLeftmostRightmost(t *testing.T) {
	tr, segs := buildFan(t, 5, 600, geom.SideLeft)
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 200; q++ {
		x := 100 - rng.Float64()*60
		y := rng.Float64() * 200
		query := geom.VSeg(x, y, y+rng.Float64()*30)
		want := query.FilterHits(segs)

		gotL, foundL, err := tr.FindLeftmost(query)
		if err != nil {
			t.Fatal(err)
		}
		gotR, foundR, err := tr.FindRightmost(query)
		if err != nil {
			t.Fatal(err)
		}
		if foundL != (len(want) > 0) || foundR != (len(want) > 0) {
			t.Fatalf("found=%v/%v, want hits=%d", foundL, foundR, len(want))
		}
		if len(want) == 0 {
			continue
		}
		// Naive extremes by crossing y (ties broken by tree order are
		// acceptable: compare crossing values only).
		loY, hiY := math.Inf(1), math.Inf(-1)
		for _, s := range want {
			c := s.YAt(query.X)
			loY = math.Min(loY, c)
			hiY = math.Max(hiY, c)
		}
		if c := gotL.YAt(query.X); math.Abs(c-loY) > 1e-9 {
			t.Fatalf("FindLeftmost crossing %g, want %g", c, loY)
		}
		if c := gotR.YAt(query.X); math.Abs(c-hiY) > 1e-9 {
			t.Fatalf("FindRightmost crossing %g, want %g", c, hiY)
		}
	}
}

// TestVisitBound validates Lemma 1/2 empirically: nodes visited per query
// within a constant of log2(n) + T/B.
func TestVisitBound(t *testing.T) {
	tr, _ := buildFan(t, 7, 4000, geom.SideRight)
	rng := rand.New(rand.NewSource(8))
	worst := 0.0
	for q := 0; q < 500; q++ {
		x := 100 + rng.Float64()*60
		y := rng.Float64() * 200
		query := geom.VSeg(x, y, y+rng.Float64()*60)
		stats, err := tr.Query(query, func(geom.Segment) {})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(tr.Len()) / float64(tr.capacity)
		bound := math.Log2(n) + float64(stats.Reported)/float64(tr.capacity) + 2
		ratio := float64(stats.NodesVisited) / bound
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > 4 {
		t.Fatalf("visits exceed 4×(log2 n + t) bound: ratio %.2f", worst)
	}
}

func TestInsertMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	segs := workload.FanVertical(rng, 400, 50, geom.SideRight, 40, 150)
	grown, err := NewEmpty(newStore(), 50, geom.SideRight, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if err := grown.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	if grown.Len() != len(segs) {
		t.Fatalf("Len = %d, want %d", grown.Len(), len(segs))
	}
	for q := 0; q < 200; q++ {
		x := 50 + rng.Float64()*50
		y := rng.Float64() * 160
		query := geom.VSeg(x, y, y+rng.Float64()*25)
		got, err := grown.CollectQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, query.FilterHits(segs), "grown query")
	}
	// The amortized rebuilds must keep the height logarithmic.
	h, err := grown.Height()
	if err != nil {
		t.Fatal(err)
	}
	if maxH := 4 * int(math.Log2(float64(len(segs))/8+2)+1); h > maxH {
		t.Fatalf("height %d after inserts, want ≤ %d", h, maxH)
	}
}

func TestInsertRejectsNonLineBased(t *testing.T) {
	tr, err := NewEmpty(newStore(), 10, geom.SideLeft, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(geom.Seg(1, 0, 0, 5, 5)); err == nil {
		t.Fatal("Insert accepted non-line-based segment")
	}
}

func TestDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	segs := workload.FanVertical(rng, 500, 80, geom.SideLeft, 60, 300)
	tr, err := Build(newStore(), 80, geom.SideLeft, 8, segs)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(len(segs))
	dead := map[uint64]bool{}
	for _, i := range perm[:250] {
		found, err := tr.Delete(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("Delete(%v) not found", segs[i])
		}
		dead[segs[i].ID] = true
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d, want 250", tr.Len())
	}
	if found, _ := tr.Delete(segs[perm[0]]); found {
		t.Fatal("double delete found")
	}
	var alive []geom.Segment
	for _, s := range segs {
		if !dead[s.ID] {
			alive = append(alive, s)
		}
	}
	for q := 0; q < 150; q++ {
		x := 80 - rng.Float64()*50
		y := rng.Float64() * 300
		query := geom.VSeg(x, y, y+rng.Float64()*50)
		got, err := tr.CollectQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, query.FilterHits(alive), "query after delete")
	}
}

func TestDeleteEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	segs := workload.FanVertical(rng, 120, 10, geom.SideRight, 30, 60)
	st := newStore()
	base := st.PagesInUse()
	tr, err := Build(st, 10, geom.SideRight, 4, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		found, err := tr.Delete(s)
		if err != nil || !found {
			t.Fatalf("Delete: %v %v", found, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if got := st.PagesInUse(); got != base {
		t.Fatalf("pages leaked: %d in use, want %d", got, base)
	}
	got, _ := tr.CollectQuery(geom.VSeg(12, -100, 100))
	if len(got) != 0 {
		t.Fatalf("query after total deletion: %v", got)
	}
}

func TestMixedInsertDeleteQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := workload.FanVertical(rng, 600, 20, geom.SideRight, 50, 250)
	tr, err := NewEmpty(newStore(), 20, geom.SideRight, 8)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	var liveList []geom.Segment
	rebuildLive := func() {
		liveList = liveList[:0]
		for i := range pool {
			if live[i] {
				liveList = append(liveList, pool[i])
			}
		}
	}
	for op := 0; op < 900; op++ {
		i := rng.Intn(len(pool))
		if live[i] {
			if _, err := tr.Delete(pool[i]); err != nil {
				t.Fatal(err)
			}
			delete(live, i)
		} else {
			if err := tr.Insert(pool[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = true
		}
		if op%60 == 0 {
			rebuildLive()
			x := 20 + rng.Float64()*45
			y := rng.Float64() * 260
			query := geom.VSeg(x, y, y+rng.Float64()*40)
			got, err := tr.CollectQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, got, query.FilterHits(liveList), "mixed ops")
		}
	}
}

func TestLinearSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1000, 4000} {
		st := pager.MustOpenMem(testPageSize, 0)
		segs := workload.FanVertical(rng, n, 0, geom.SideRight, 50, 500)
		if _, err := Build(st, 0, geom.SideRight, 8, segs); err != nil {
			t.Fatal(err)
		}
		// A capacity-8 PST over n segments needs about n/8 full nodes
		// plus slack for underfull leaves; 3×⌈n/8⌉ is generous.
		if got, lim := st.PagesInUse(), 3*(n/8+1); got > lim {
			t.Fatalf("n=%d: %d pages used, want ≤ %d (linear space)", n, got, lim)
		}
	}
}

func TestTouchingSegmentsSharedBasePoint(t *testing.T) {
	// Segments sharing a base endpoint (touching) must order by slant and
	// answer correctly — the NCT model explicitly allows this.
	segs := []geom.Segment{
		geom.Seg(1, 10, 5, 2, 13),  // steep up-left
		geom.Seg(2, 10, 5, 2, 5),   // horizontal left
		geom.Seg(3, 10, 5, 2, -3),  // down-left
		geom.Seg(4, 10, 5, 6, 5.1), // short
	}
	tr, err := Build(newStore(), 10, geom.SideLeft, 2, segs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    geom.VQuery
		want int
	}{
		{geom.VSeg(2, -3, 13), 3},
		{geom.VSeg(2, 6, 13), 1},
		{geom.VSeg(6, 4, 6), 2},  // segments 2 (y=5) and 4 (y=5.1)
		{geom.VSeg(10, 5, 5), 4}, // on base line through shared point
	} {
		got, err := tr.CollectQuery(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, tc.q.FilterHits(segs), tc.q.String())
		if len(got) != tc.want {
			t.Fatalf("%v: got %d, want %d", tc.q, len(got), tc.want)
		}
	}
}
