package segdb_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"segdb"
	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

// TestSynchronizedConcurrentReaders runs parallel queries against a
// shared index (run with -race to exercise the store's locking).
func TestSynchronizedConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs := workload.Grid(rng, 14, 14, 0.9, 0.2)
	st := segdb.NewMemStore(16, 64)
	raw, err := segdb.BuildSolution2(st, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.Synchronized(raw)

	box := workload.BBox(segs)
	queries := workload.RandomVS(rng, 64, box, 3)
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = len(segdb.FilterHits(q, segs))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (g*31 + round) % len(queries)
				got := 0
				_, err := ix.Query(queries[i], func(segdb.Segment) { got++ })
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- errMismatch{got, want[i]}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch [2]int

func (e errMismatch) Error() string { return "concurrent query mismatch" }

// TestSynchronizedReadersAndWriter interleaves a writer with readers;
// readers must always see a consistent snapshot (answers ⊆ full pool and
// ⊇ the segments inserted before the reader started).
func TestSynchronizedReadersAndWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := workload.Levels(rng, 600, 300, 1.3)
	st := segdb.NewMemStore(16, 64)
	raw, err := segdb.BuildSolution1(st, segdb.Options{B: 16}, pool[:100])
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.Synchronized(raw)

	poolIDs := map[uint64]bool{}
	for _, s := range pool {
		poolIDs[s.ID] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for _, s := range pool[100:] {
			if err := ix.Insert(s); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			localRng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 50; round++ {
				x := localRng.Float64() * 300
				q := segdb.VLine(x)
				baseline := 0 // segments from the initial 100 that q hits
				for _, s := range pool[:100] {
					if q.Hits(s) {
						baseline++
					}
				}
				got := 0
				_, err := ix.Query(q, func(s segdb.Segment) {
					if !poolIDs[s.ID] {
						errs <- errMismatch{int(s.ID), 0}
					}
					got++
				})
				if err != nil {
					errs <- err
					return
				}
				if got < baseline {
					errs <- errMismatch{got, baseline}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ix.Len() != len(pool) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pool))
	}
}

// TestSyncCompact covers Compact through the Synchronized wrapper for both
// solutions: Solution 1 compacts under the exclusive lock; Solution 2
// reports ErrUnsupported. Either way the wrapper must release its lock —
// the follow-up operations would deadlock forever if an error path leaked
// the exclusive lock, so they run under a watchdog.
func TestSyncCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	segs := workload.Levels(rng, 400, 200, 1.3)

	st1 := segdb.NewMemStore(16, 32)
	raw1, err := segdb.BuildSolution1(st1, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	sync1 := segdb.Synchronized(raw1)
	for _, s := range segs[:300] {
		if _, err := sync1.Delete(s); err != nil {
			t.Fatal(err)
		}
	}
	before := st1.PagesInUse()
	if err := segdb.Compact(sync1); err != nil {
		t.Fatalf("Compact(Synchronized(sol1)) = %v", err)
	}
	if st1.PagesInUse() >= before {
		t.Fatalf("synchronized Compact reclaimed nothing: %d -> %d", before, st1.PagesInUse())
	}

	st2 := segdb.NewMemStore(16, 32)
	raw2, err := segdb.BuildSolution2(st2, segdb.Options{B: 16}, segs[:100])
	if err != nil {
		t.Fatal(err)
	}
	sync2 := segdb.Synchronized(raw2)
	if err := segdb.Compact(sync2); err != segdb.ErrUnsupported {
		t.Fatalf("Compact(Synchronized(sol2)) = %v, want ErrUnsupported", err)
	}

	// A doubly wrapped index still routes to the inner implementation.
	if err := segdb.Compact(segdb.Synchronized(sync1)); err != nil {
		t.Fatalf("Compact(Synchronized(Synchronized(sol1))) = %v", err)
	}

	// Both wrappers must be fully usable after Compact, including after the
	// ErrUnsupported path: a leaked lock would hang these operations.
	done := make(chan error, 1)
	go func() {
		for _, ix := range []*segdb.SyncIndex{sync1, sync2} {
			if err := ix.Insert(segdb.NewSegment(1e6, 0, -5, 10, -5)); err != nil {
				done <- err
				return
			}
			if _, err := ix.Query(segdb.VLine(5), func(segdb.Segment) {}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("index unusable after Compact: a lock was not released on an error path")
	}
}

// TestSyncMixedWorkloadStress runs parallel Query, Insert and Delete
// traffic against Synchronized(Solution1) over a pooled store (run with
// -race). A static base set is never touched, so every query's answers
// must contain FilterHits(base) exactly, and every extra answer must be a
// churn segment that genuinely intersects the query. After the churn
// writers finish (every churn segment inserted, half deleted), the final
// contents must match ground truth exactly.
func TestSyncMixedWorkloadStress(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	all := workload.Levels(rng, 900, 300, 1.3)
	base, churn := all[:300], all[300:]
	st := segdb.NewMemStore(16, 64)
	raw, err := segdb.BuildSolution1(st, segdb.Options{B: 16}, base)
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.Synchronized(raw)

	baseIDs := map[uint64]bool{}
	for _, s := range base {
		baseIDs[s.ID] = true
	}
	churnIDs := map[uint64]bool{}
	for _, s := range churn {
		churnIDs[s.ID] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	inserted := make(chan segdb.Segment, len(churn))

	wg.Add(1)
	go func() { // inserter
		defer wg.Done()
		defer close(inserted)
		for _, s := range churn {
			if err := ix.Insert(s); err != nil {
				fail(err)
				return
			}
			inserted <- s
		}
	}()
	wg.Add(1)
	go func() { // deleter: removes every other inserted churn segment
		defer wg.Done()
		odd := false
		for s := range inserted {
			odd = !odd
			if !odd {
				continue
			}
			ok, err := ix.Delete(s)
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				fail(errMismatch{int(s.ID), -1})
				return
			}
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			localRng := rand.New(rand.NewSource(int64(100 + g)))
			for round := 0; round < 60; round++ {
				x := localRng.Float64() * 300
				lo := localRng.Float64() * 250
				q := segdb.VSeg(x, lo, lo+20)
				wantBase := map[uint64]bool{}
				for _, s := range base {
					if q.Hits(s) {
						wantBase[s.ID] = true
					}
				}
				got := map[uint64]bool{}
				_, err := ix.Query(q, func(s segdb.Segment) {
					if got[s.ID] {
						fail(errMismatch{int(s.ID), -2}) // duplicate report
						return
					}
					got[s.ID] = true
					if baseIDs[s.ID] {
						return
					}
					// Anything beyond the base set must be a churn segment
					// that really intersects q.
					if !churnIDs[s.ID] || !q.Hits(s) {
						fail(errMismatch{int(s.ID), -3})
					}
				})
				if err != nil {
					fail(err)
					return
				}
				for id := range wantBase {
					if !got[id] {
						fail(errMismatch{int(id), -4}) // lost a base answer
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced: exact ground truth over the final contents.
	final := append([]segdb.Segment{}, base...)
	for i, s := range churn {
		if i%2 == 1 { // the deleter removed odd-indexed arrivals
			final = append(final, s)
		}
	}
	if ix.Len() != len(final) {
		t.Fatalf("final Len = %d, want %d", ix.Len(), len(final))
	}
	qRng := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		x := qRng.Float64() * 300
		lo := qRng.Float64() * 250
		q := segdb.VSeg(x, lo, lo+25)
		want := segdb.FilterHits(q, final)
		got, err := segdb.CollectQuery(ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d hits, want %d", round, len(got), len(want))
		}
	}
}

// TestSyncIOAttribution: SynchronizedOn brackets every query with the
// store's read counters, so serial queries carry exact per-query
// PagesRead/PoolHits — a cold pool shows physical reads, a warm re-run
// of the same query shows pool hits instead, and the per-query deltas
// sum to the store's own counter movement.
func TestSyncIOAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	segs := workload.Grid(rng, 12, 12, 0.9, 0.2)
	pageSize := segdb.PageSizeFor(16)
	st, err := pager.Open(pager.NewMemDevice(pageSize), pageSize, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := segdb.CreateSolution2(st, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.SynchronizedOn(raw, st)
	box := workload.BBox(segs)
	q := segdb.VSeg((box.MinX+box.MaxX)/2, box.MinY, box.MaxY)

	r0, h0, _ := st.ReadWindow()
	stats, err := ix.Query(q, func(segdb.Segment) {})
	if err != nil {
		t.Fatal(err)
	}
	r1, h1, _ := st.ReadWindow()
	if stats.PagesRead == 0 {
		t.Fatal("query on a cold 4-page pool attributed zero physical reads")
	}
	if stats.PagesRead != r1-r0 || stats.PoolHits != h1-h0 {
		t.Fatalf("serial attribution inexact: query saw %d reads/%d hits, store moved %d/%d",
			stats.PagesRead, stats.PoolHits, r1-r0, h1-h0)
	}

	// The plain wrapper attributes nothing: zero stays zero.
	plain := segdb.Synchronized(raw)
	pstats, err := plain.Query(q, func(segdb.Segment) {})
	if err != nil {
		t.Fatal(err)
	}
	if pstats.PagesRead != 0 || pstats.PoolHits != 0 {
		t.Fatalf("Synchronized (no store) attributed I/O: %+v", pstats)
	}

	// QueryBatch over SynchronizedOn carries attribution per result.
	queries := workload.RandomStabs(rng, 8, box)
	var pages int64
	for i, br := range segdb.QueryBatch(ix, queries, 2) {
		if br.Err != nil {
			t.Fatalf("batch[%d]: %v", i, br.Err)
		}
		pages += br.Stats.PagesRead + br.Stats.PoolHits
	}
	if pages == 0 {
		t.Fatal("batch over SynchronizedOn attributed no page touches at all")
	}
}

// TestSyncSurfacesFaults: the concurrency wrapper adds no error
// swallowing — injected device faults come back typed through Query and
// land per-query in QueryBatch results.
func TestSyncSurfacesFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	segs := workload.Grid(rng, 10, 10, 0.9, 0.2)
	pageSize := segdb.PageSizeFor(16)
	dev := faultdev.New(pager.NewMemDevice(pageSize), 1)
	st, err := pager.Open(dev, pageSize, 0) // zero cache: faults reach queries
	if err != nil {
		t.Fatal(err)
	}
	raw, err := segdb.CreateSolution2(st, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.Synchronized(raw)
	box := workload.BBox(segs)
	queries := workload.RandomStabs(rng, 6, box)

	dev.SetBudget(0)
	if _, err := ix.Query(queries[0], func(segdb.Segment) {}); !errors.Is(err, faultdev.ErrInjected) {
		t.Fatalf("query on dead disk: %v, want ErrInjected", err)
	}
	for i, br := range segdb.QueryBatch(ix, queries, 3) {
		if !errors.Is(br.Err, faultdev.ErrInjected) {
			t.Fatalf("batch[%d] on dead disk: %v, want ErrInjected", i, br.Err)
		}
	}

	// A crashed device is just as visible through the wrapper.
	dev.SetBudget(-1)
	dev.Crash()
	if _, err := ix.Query(queries[0], func(segdb.Segment) {}); !errors.Is(err, faultdev.ErrCrashed) {
		t.Fatalf("query on crashed device: %v, want ErrCrashed", err)
	}
}

// TestSyncQueryContextCancelBackfillsStats is the regression test for
// cancelled queries returning zero QueryStats: the queryAborted panic
// unwinds past the `st, err = Query(...)` assignment, so before the fix
// a query that had already delivered hundreds of segments reported
// Reported = 0 next to non-zero PagesRead — internally inconsistent
// slow-log rows. The stats of a cancelled query must now cover at least
// the segments actually delivered. Run with -race.
func TestSyncQueryContextCancelBackfillsStats(t *testing.T) {
	// 300 stacked horizontal segments all crossing the query line, so a
	// stab delivers far more than the 64-emission cancellation stride.
	var segs []segdb.Segment
	for i := 1; i <= 300; i++ {
		segs = append(segs, segdb.NewSegment(uint64(i), 0, float64(i), 10, float64(i)))
	}
	st := segdb.NewMemStore(16, 4)
	raw, err := segdb.BuildSolution1(st, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.SynchronizedOn(raw, st)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	delivered := 0
	qst, err := ix.QueryContext(ctx, segdb.VLine(5), func(segdb.Segment) {
		if delivered++; delivered == 100 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (did the query finish before cancelling?)", err)
	}
	if delivered < 100 || delivered >= len(segs) {
		t.Fatalf("cancellation did not abort mid-emission: delivered %d of %d", delivered, len(segs))
	}
	if qst.Reported < delivered {
		t.Fatalf("cancelled query stats lost its work: Reported = %d, delivered = %d", qst.Reported, delivered)
	}
	if qst.PagesRead+qst.PoolHits == 0 {
		t.Fatalf("cancelled query reports no I/O despite delivering %d segments", delivered)
	}
}

// TestSyncUpdateIOAttribution: InsertStats/DeleteStats bracket updates
// with the same I/O window queries get, extended with pages written, so
// write endpoints can report per-update cost. A wrapper built without a
// store stays inert.
func TestSyncUpdateIOAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs := workload.Grid(rng, 8, 8, 0.9, 0.2)
	st := segdb.NewMemStore(16, 64)
	raw, err := segdb.BuildSolution1(st, segdb.Options{B: 16}, segs[:len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	ix := segdb.SynchronizedOn(raw, st)

	extra := segs[len(segs)-1]
	ist, err := ix.InsertStats(extra)
	if err != nil {
		t.Fatal(err)
	}
	if ist.PagesWritten == 0 {
		t.Fatalf("insert reported no pages written: %+v", ist)
	}
	found, dst, err := ix.DeleteStats(extra)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if dst.PagesRead+dst.PoolHits+dst.PagesWritten == 0 {
		t.Fatalf("delete reported no I/O at all: %+v", dst)
	}

	// Without a store there is nothing to attribute: all-zero stats.
	plain := segdb.Synchronized(raw)
	pst, err := plain.InsertStats(extra)
	if err != nil {
		t.Fatal(err)
	}
	if pst != (segdb.UpdateStats{}) {
		t.Fatalf("storeless wrapper attributed I/O: %+v", pst)
	}
	if _, _, err := plain.DeleteStats(extra); err != nil {
		t.Fatal(err)
	}
}
