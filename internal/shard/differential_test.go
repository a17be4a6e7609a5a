package shard

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"segdb"
	"segdb/internal/workload"
)

// shardOp is one step of a mixed update workload.
type shardOp struct {
	del bool
	seg segdb.Segment
}

// differentialWorkload builds an initial NCT segment set plus a mixed
// insert/delete tail: the inserts are the second half of a grid, the
// deletes revisit both halves, interleaved so deletions hit segments
// that are sometimes spanners and sometimes not.
func differentialWorkload(seed int64) (initial []segdb.Segment, ops []shardOp) {
	rng := rand.New(rand.NewSource(seed))
	segs := workload.Grid(rng, 16, 16, 0.9, 0.2)
	half := len(segs) / 2
	initial = segs[:half]
	for i, s := range segs[half:] {
		ops = append(ops, shardOp{seg: s})
		if i%3 == 1 {
			// Delete something already present: alternate between the
			// initial load and recently inserted segments.
			if i%2 == 0 {
				ops = append(ops, shardOp{del: true, seg: initial[(i*7)%half]})
			} else {
				ops = append(ops, shardOp{del: true, seg: segs[half+i]})
			}
		}
	}
	return initial, ops
}

// openReference builds the unsharded oracle: a plain DurableIndex over
// the same initial load, in its own directory.
func openReference(t *testing.T, initial []segdb.Segment, b int) *segdb.DurableIndex {
	t.Helper()
	dir := t.TempDir()
	db := filepath.Join(dir, "ref.db")
	if err := segdb.BuildIndexFile(db, segdb.Options{B: b}, 1, initial); err != nil {
		t.Fatal(err)
	}
	ref, err := segdb.OpenDurableIndex(db, filepath.Join(dir, "ref.wal"),
		segdb.DurableOptions{Build: segdb.Options{B: b}, CachePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	return ref
}

func collectRef(t *testing.T, ref *segdb.DurableIndex, q segdb.Query) []segdb.Segment {
	t.Helper()
	var hits []segdb.Segment
	if _, err := ref.Index().Query(q, func(sg segdb.Segment) { hits = append(hits, sg) }); err != nil {
		t.Fatalf("reference query %v: %v", q, err)
	}
	return hits
}

// compareAll runs the full query battery through both stores and
// demands identical sorted ID sets per query.
func compareAll(t *testing.T, s *Store, ref *segdb.DurableIndex, queries []segdb.Query, phase string) {
	t.Helper()
	for _, q := range queries {
		got := collectStore(t, s, q)
		want := collectRef(t, ref, q)
		if !sameIDSet(got, want) {
			t.Fatalf("%s: query %v: shard store returned %v, reference %v",
				phase, q, sortedIDs(got), sortedIDs(want))
		}
	}
}

// TestShardDifferential is the headline correctness test: identical NCT
// workloads — bulk load plus a mixed insert/delete tail — through
// shard.Store at K∈{1,2,4,8} and through a plain DurableIndex, with
// sorted result sets compared per query (segments, both rays, lines,
// and QueryBatch) at several points of the interleaving.
func TestShardDifferential(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, k, 42+int64(k))
		})
	}
}

func runDifferential(t *testing.T, k int, seed int64) {
	initial, ops := differentialWorkload(seed)
	s, err := Create(t.TempDir(), testConfig(k), initial)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := openReference(t, initial, 16)

	all := append(append([]segdb.Segment(nil), initial...), make([]segdb.Segment, 0, len(ops))...)
	for _, op := range ops {
		if !op.del {
			all = append(all, op.seg)
		}
	}
	queries := batteryQueries(s.Cuts(), all, seed)

	compareAll(t, s, ref, queries, "after bulk load")

	// Apply the mixed tail to both, comparing at intermediate points so
	// a divergence is caught near the op that caused it.
	checkpoints := map[int]bool{len(ops) / 3: true, 2 * len(ops) / 3: true, len(ops) - 1: true}
	for i, op := range ops {
		if op.del {
			gotFound, _, err := s.Delete(op.seg)
			if err != nil {
				t.Fatalf("op %d: shard delete: %v", i, err)
			}
			wantFound, _, err := ref.Delete(op.seg)
			if err != nil {
				t.Fatalf("op %d: reference delete: %v", i, err)
			}
			if gotFound != wantFound {
				t.Fatalf("op %d: delete found=%v on shard store, %v on reference", i, gotFound, wantFound)
			}
		} else {
			if _, err := s.Insert(op.seg); err != nil {
				t.Fatalf("op %d: shard insert: %v", i, err)
			}
			if _, err := ref.Insert(op.seg); err != nil {
				t.Fatalf("op %d: reference insert: %v", i, err)
			}
		}
		if checkpoints[i] {
			compareAll(t, s, ref, queries, fmt.Sprintf("after op %d", i))
		}
	}
	if s.Len() != ref.Index().Len() {
		t.Fatalf("lengths diverged: shard store %d, reference %d", s.Len(), ref.Index().Len())
	}

	// QueryBatch must agree per query too, at several parallelism levels
	// (1 is the sequential path, >1 the worker-pool fan-out).
	for _, par := range []int{1, 4} {
		got := s.QueryBatchContext(context.Background(), queries, par)
		want := ref.Index().QueryBatchContext(context.Background(), queries, par)
		for i := range queries {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("par %d query %d: errs %v / %v", par, i, got[i].Err, want[i].Err)
			}
			if !sameIDSet(got[i].Hits, want[i].Hits) {
				t.Fatalf("par %d: batch query %d (%v): shard %v, reference %v",
					par, i, queries[i], sortedIDs(got[i].Hits), sortedIDs(want[i].Hits))
			}
		}
	}

	// Survives a restart: close, reopen, compare again.
	dir := s.Dir()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	compareAll(t, s2, ref, queries, "after reopen")

	// And a compaction: spanner lists must be rebuilt-equivalent.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	compareAll(t, s2, ref, queries, "after compact")
}

// TestShardDifferentialConcurrent exercises the copy-on-write spanner
// lists under -race: a writer mutates the store while reader goroutines
// run the query battery; afterwards the same ops are applied to the
// reference and the final states compared.
func TestShardDifferentialConcurrent(t *testing.T) {
	const k = 4
	initial, ops := differentialWorkload(99)
	s, err := Create(t.TempDir(), testConfig(k), initial)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := openReference(t, initial, 16)

	queries := batteryQueries(s.Cuts(), initial, 99)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, res := range s.QueryBatchContext(context.Background(), queries, 2) {
					if res.Err != nil {
						errc <- res.Err
						return
					}
				}
			}
		}()
	}
	for i, op := range ops {
		var err error
		if op.del {
			_, _, err = s.Delete(op.seg)
		} else {
			_, err = s.Insert(op.seg)
		}
		if err != nil {
			t.Fatalf("concurrent op %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("reader failed: %v", err)
	default:
	}

	for i, op := range ops {
		var err error
		if op.del {
			_, _, err = ref.Delete(op.seg)
		} else {
			_, err = ref.Insert(op.seg)
		}
		if err != nil {
			t.Fatalf("reference op %d: %v", i, err)
		}
	}
	compareAll(t, s, ref, queries, "after concurrent phase")
}
