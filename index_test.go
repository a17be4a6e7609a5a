package segdb_test

import (
	"math/rand"
	"testing"

	"segdb"
	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

func TestAllIndexesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs := workload.Grid(rng, 14, 14, 0.85, 0.2)
	pageSize := 64 + 48*16

	build := map[string]func() (segdb.Index, error){
		"sol1": func() (segdb.Index, error) {
			return segdb.BuildSolution1(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16}, segs)
		},
		"sol1-plain": func() (segdb.Index, error) {
			return segdb.BuildSolution1(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16, PlainPST: true}, segs)
		},
		"sol2": func() (segdb.Index, error) {
			return segdb.BuildSolution2(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16}, segs)
		},
		"scan": func() (segdb.Index, error) {
			return segdb.NewScanBaseline(pager.MustOpenMem(pageSize, 32), segs)
		},
		"stabfilter": func() (segdb.Index, error) {
			return segdb.NewStabFilterBaseline(pager.MustOpenMem(pageSize, 32), 16, segs)
		},
	}
	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 120, box, 3)
	for name, mk := range build {
		ix, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.Len() != len(segs) {
			t.Fatalf("%s: Len = %d, want %d", name, ix.Len(), len(segs))
		}
		for _, q := range queries {
			got := map[uint64]bool{}
			stats, err := ix.Query(q, func(s geom.Segment) { got[s.ID] = true })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := q.FilterHits(segs)
			if len(got) != len(want) {
				t.Fatalf("%s %v: got %d, want %d", name, q, len(got), len(want))
			}
			if stats.Reported != len(want) {
				t.Fatalf("%s: Reported = %d, want %d", name, stats.Reported, len(want))
			}
		}
	}
}

func TestSolution2StatsExposeBridges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	segs := workload.WideLevels(rng, 4000, 400)
	ix, err := segdb.BuildSolution2(pager.MustOpenMem(64+48*32, 64), segdb.Options{B: 32}, segs)
	if err != nil {
		t.Fatal(err)
	}
	jumps := 0
	box := workload.BBox(segs)
	for _, q := range workload.RandomVS(rng, 100, box, 30) {
		stats, err := ix.Query(q, func(geom.Segment) {})
		if err != nil {
			t.Fatal(err)
		}
		jumps += stats.GBridgeJumps
	}
	if jumps == 0 {
		t.Fatal("Solution 2 stats show no bridge jumps on a long-heavy workload")
	}
}
