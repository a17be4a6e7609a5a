package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segdb"
	"segdb/internal/workload"
)

// TestShardBatchStatsMerge is the regression test for merged QueryStats
// from the scatter-gather fan-out: MergeBatchStats over a cross-shard
// batch must sum PagesRead and PoolHits across every shard the batch
// touched — checked against the shards' own pager counters. Parallelism
// 1 keeps the attribution windows non-overlapping, so the sums are
// exact, not approximate.
func TestShardBatchStatsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	segs := workload.Grid(rng, 16, 16, 0.9, 0.2)
	s, err := Create(t.TempDir(), testConfig(4), segs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := batteryQueries(s.Cuts(), segs, 31)

	type pcount struct{ reads, hits int64 }
	before := make([]pcount, s.Shards())
	for k := range before {
		st := s.Shard(k).Store()
		st.DropCache()
		p := st.Stats()
		before[k] = pcount{p.Reads, p.CacheHits}
	}

	results := s.QueryBatchContext(context.Background(), queries, 1)
	m := segdb.MergeBatchStats(results)

	var wantReads, wantHits int64
	for k := range before {
		p := s.Shard(k).Store().Stats()
		wantReads += p.Reads - before[k].reads
		wantHits += p.CacheHits - before[k].hits
	}
	if m.PagesRead != wantReads {
		t.Fatalf("merged PagesRead = %d, shards' pager counters advanced by %d", m.PagesRead, wantReads)
	}
	if m.PoolHits != wantHits {
		t.Fatalf("merged PoolHits = %d, shards' pager counters advanced by %d", m.PoolHits, wantHits)
	}
	if m.PagesRead == 0 {
		t.Fatal("batch over a dropped cache recorded no physical reads — attribution is not wired")
	}
	totalHits := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		totalHits += len(r.Hits)
	}
	if m.Reported != totalHits {
		t.Fatalf("merged Reported = %d, batch delivered %d hits", m.Reported, totalHits)
	}
}

// tripCtx is a context that cancels itself after a fixed number of
// Err() calls — the deterministic mid-batch cancellation trigger. The
// query path polls Err() at fixed emission strides, so "trip on the
// Nth poll" lands the cancellation at an exact point of an exact query.
type tripCtx struct {
	context.Context
	calls *atomic.Int64
	trip  int64
	done  chan struct{}
	once  *sync.Once
}

func newTripCtx(trip int64) *tripCtx {
	return &tripCtx{
		Context: context.Background(),
		calls:   new(atomic.Int64),
		trip:    trip,
		done:    make(chan struct{}),
		once:    new(sync.Once),
	}
}

func (c *tripCtx) Err() error {
	if c.calls.Add(1) >= c.trip {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *tripCtx) Done() <-chan struct{}             { return c.done }
func (c *tripCtx) Deadline() (time.Time, bool)       { return time.Time{}, false }
func (c *tripCtx) Value(key interface{}) interface{} { return nil }

// TestShardBatchCancelPartial pins the PR 6 cancellation contract on the
// sharded store: a cross-shard QueryBatchContext cancelled mid-batch
// still returns one result per query — completed queries keep their full
// answers, the in-flight query keeps the hits it had emitted plus
// ctx.Err(), and queries not yet started fail without running.
func TestShardBatchCancelPartial(t *testing.T) {
	// Slab layout under explicit cuts {100, 200, 300}: 500 stacked
	// horizontal segments in slab 0 make VLine(50) a ~500-hit "heavy"
	// query (the Err() poll stride is 64 emissions, so it polls several
	// times); a few segments per other slab make cheap queries there.
	var segs []segdb.Segment
	const heavy = 500
	for i := 0; i < heavy; i++ {
		segs = append(segs, segdb.NewSegment(uint64(i+1), 0, float64(i), 90, float64(i)))
	}
	for i := 0; i < 8; i++ {
		x := 110 + float64(i*40) // spreads over slabs 1..3
		segs = append(segs, segdb.NewSegment(uint64(1000+i), x, float64(i), x+5, float64(i)))
	}
	s, err := Create(t.TempDir(), Config{
		Shards:  4,
		Cuts:    []float64{100, 200, 300},
		Durable: segdb.DurableOptions{Build: segdb.Options{B: 16}, CachePages: 64},
	}, segs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	queries := []segdb.Query{
		segdb.VLine(50),  // heavy, slab 0 — completes
		segdb.VLine(50),  // heavy, slab 0 — cancelled mid-emission
		segdb.VLine(120), // slabs 1..3 — must never start
		segdb.VLine(220),
		segdb.VLine(320),
	}

	// Calibrate: how many Err() polls does one heavy query cost? (One at
	// QueryContext entry plus one per 64 emissions.)
	cal := newTripCtx(1 << 30)
	if r := s.QueryBatchContext(cal, queries[:1], 1); r[0].Err != nil || len(r[0].Hits) != heavy {
		t.Fatalf("calibration query: %d hits, err %v", len(r[0].Hits), r[0].Err)
	}
	perHeavy := cal.calls.Load()
	if perHeavy < 3 {
		t.Fatalf("heavy query polled Err() only %d times — not enough resolution to cancel mid-query", perHeavy)
	}

	// Trip on query 1's third poll: its two entry checks (batch worker,
	// then SyncIndex.QueryContext) pass, its first emission-stride check
	// cancels — after 64 of its ~500 hits.
	ctx := newTripCtx(perHeavy + 3)
	results := s.QueryBatchContext(ctx, queries, 1)
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	if results[0].Err != nil || len(results[0].Hits) != heavy {
		t.Fatalf("completed query: %d hits, err %v — cancellation clobbered a finished result",
			len(results[0].Hits), results[0].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want Canceled", results[1].Err)
	}
	if n := len(results[1].Hits); n == 0 || n >= heavy {
		t.Fatalf("cancelled query kept %d hits, want partial (0 < n < %d)", n, heavy)
	}
	for i, r := range results[2:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unstarted query %d: err = %v, want Canceled", i+2, r.Err)
		}
		if len(r.Hits) != 0 {
			t.Fatalf("unstarted query %d ran anyway: %d hits", i+2, len(r.Hits))
		}
	}

	// And the PR 6 baseline: a context already done fails every query
	// without starting any, sharded or not.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range s.QueryBatchContext(pre, queries, 2) {
		if !errors.Is(r.Err, context.Canceled) || len(r.Hits) != 0 {
			t.Fatalf("pre-cancelled query %d: err %v, %d hits", i, r.Err, len(r.Hits))
		}
	}
}
