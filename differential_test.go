package segdb_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"segdb"
	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

// This file differentially drives the public surface — QueryBatch,
// Synchronized, Compact — against the same oracle as the raw structures.

// oracleIDs returns the reference answer as an ID set.
func oracleIDs(q geom.VQuery, segs []geom.Segment) map[uint64]bool {
	want := map[uint64]bool{}
	for _, s := range q.FilterHits(segs) {
		want[s.ID] = true
	}
	return want
}

// checkAnswer compares an answer ID set against the oracle.
func checkAnswer(t *testing.T, label string, q geom.VQuery, got map[uint64]bool, segs []geom.Segment) bool {
	t.Helper()
	want := oracleIDs(q, segs)
	if len(got) != len(want) {
		t.Logf("%s %v: got %d want %d", label, q, len(got), len(want))
		return false
	}
	for id := range want {
		if !got[id] {
			t.Logf("%s %v: missing %d", label, q, id)
			return false
		}
	}
	return true
}

func differentialWorkload(seed int64) []geom.Segment {
	rng := rand.New(rand.NewSource(seed))
	switch seed % 4 {
	case 0:
		return workload.Layers(rng, 3+rng.Intn(5), 20+rng.Intn(30), 200)
	case 1:
		return workload.Grid(rng, 6+rng.Intn(6), 6+rng.Intn(6), 0.9, 0.2)
	case 2:
		return workload.Levels(rng, 100+rng.Intn(300), 150, 1.2)
	default:
		return workload.WideLevels(rng, 100+rng.Intn(300), 120)
	}
}

func differentialQueries(rng *rand.Rand, segs []geom.Segment) []geom.VQuery {
	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 40, box, (box.MaxY-box.MinY)/10)
	queries = append(queries, workload.RandomStabs(rng, 10, box)...)
	// Knife-edge queries: through exact endpoints.
	for i := 0; i < 10; i++ {
		s := segs[rng.Intn(len(segs))]
		queries = append(queries, geom.VSeg(s.A.X, s.A.Y-3, s.A.Y+3))
		queries = append(queries, geom.VSeg(s.B.X, s.B.Y, s.B.Y))
	}
	return queries
}

// TestQuickDifferential drives every implementation with the same random
// workload and queries (including exact-endpoint and boundary-grazing
// ones) and demands byte-identical answer sets. Random seeds come from
// testing/quick so each run explores new trajectories.
func TestQuickDifferential(t *testing.T) {
	pageSize := 64 + 48*16
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		segs := differentialWorkload(seed)

		indexes := map[string]segdb.Index{}
		ix1, err := segdb.BuildSolution1(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16}, segs)
		if err != nil {
			t.Log(err)
			return false
		}
		indexes["sol1"] = ix1
		ix1p, err := segdb.BuildSolution1(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16, PlainPST: true}, segs)
		if err != nil {
			t.Log(err)
			return false
		}
		indexes["sol1-plain"] = ix1p
		ix2, err := segdb.BuildSolution2(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16}, segs)
		if err != nil {
			t.Log(err)
			return false
		}
		indexes["sol2"] = ix2
		ix2nb, err := segdb.BuildSolution2(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16, NoCascade: true}, segs)
		if err != nil {
			t.Log(err)
			return false
		}
		indexes["sol2-nocascade"] = ix2nb
		sf, err := segdb.NewStabFilterBaseline(pager.MustOpenMem(pageSize, 32), 16, segs)
		if err != nil {
			t.Log(err)
			return false
		}
		indexes["stabfilter"] = sf

		queries := differentialQueries(rng, segs)
		for _, q := range queries {
			for name, ix := range indexes {
				got := map[uint64]bool{}
				if _, err := ix.Query(q, func(s geom.Segment) { got[s.ID] = true }); err != nil {
					t.Logf("%s: %v", name, err)
					return false
				}
				if !checkAnswer(t, name, q, got, segs) {
					t.Logf("seed %d", seed)
					return false
				}
			}
		}

		// The batch path must agree answer-for-answer with the oracle too:
		// QueryBatch pulls queries from a shared cursor with concurrent
		// workers, so this also differentially exercises the concurrent
		// read path of the sharded pool.
		for which, ix := range []segdb.Index{ix1, ix2} {
			sync := segdb.Synchronized(ix)
			for i, br := range segdb.QueryBatch(sync, queries, 4) {
				if br.Err != nil {
					t.Logf("batch[%d]: %v", i, br.Err)
					return false
				}
				got := map[uint64]bool{}
				for _, s := range br.Hits {
					got[s.ID] = true
				}
				if !checkAnswer(t, "batch", queries[i], got, segs) {
					t.Logf("seed %d batch index %d", seed, which)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDifferentialCompact delete-heavy variant: delete a third of
// the segments, Compact through the SyncIndex wrapper (the serving
// configuration), and demand post-compact answers — single and batch —
// still match the naive oracle over the surviving set.
func TestQuickDifferentialCompact(t *testing.T) {
	pageSize := 64 + 48*16
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5e61))
		segs := differentialWorkload(seed)
		ix, err := segdb.BuildSolution1(pager.MustOpenMem(pageSize, 32), segdb.Options{B: 16}, segs)
		if err != nil {
			t.Log(err)
			return false
		}
		sync := segdb.Synchronized(ix)

		// Delete every third segment through the synchronized wrapper.
		alive := make([]geom.Segment, 0, len(segs))
		for i, s := range segs {
			if i%3 == 0 {
				found, err := sync.Delete(s)
				if err != nil || !found {
					t.Logf("delete %v: found=%v err=%v", s, found, err)
					return false
				}
				continue
			}
			alive = append(alive, s)
		}

		if err := segdb.Compact(sync); err != nil {
			t.Logf("compact: %v", err)
			return false
		}
		if sync.Len() != len(alive) {
			t.Logf("post-compact Len = %d, want %d", sync.Len(), len(alive))
			return false
		}

		queries := differentialQueries(rng, alive)
		for _, q := range queries {
			got := map[uint64]bool{}
			if _, err := sync.Query(q, func(s geom.Segment) { got[s.ID] = true }); err != nil {
				t.Logf("post-compact query: %v", err)
				return false
			}
			if !checkAnswer(t, "post-compact", q, got, alive) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		for i, br := range segdb.QueryBatch(sync, queries, 4) {
			if br.Err != nil {
				t.Logf("post-compact batch[%d]: %v", i, br.Err)
				return false
			}
			got := map[uint64]bool{}
			for _, s := range br.Hits {
				got[s.ID] = true
			}
			if !checkAnswer(t, "post-compact-batch", queries[i], got, alive) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
