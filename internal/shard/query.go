package shard

import (
	"context"
	"errors"

	"segdb"
	"segdb/internal/trace"
)

// Query answers a VS query through the sharded store. It is QueryContext
// without a deadline.
func (s *Store) Query(q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	return s.QueryContext(context.Background(), q, emit)
}

// QueryContext answers a VS query: it routes to the single slab index
// owning q.X (one O(log_B n + t') tree search there, under that shard's
// shared lock with its own I/O attribution window), then scans the
// slab's left-cut spanner list for segments owned further left that
// reach into the slab. The spanner scan is pure in-memory filtering over
// an immutable copy-on-write slice — it touches no pages, so the
// query's PagesRead/PoolHits are exactly the owning shard's, and the
// only extra cost of sharding is that list's length (the "spanner-list
// constant"). Results need no deduplication: the slab index holds only
// segments whose left endpoint is inside the slab, the spanner list only
// segments whose left endpoint is strictly left of it.
//
// Cancellation mirrors SyncIndex.QueryContext: segments already emitted
// stay delivered, the error is ctx.Err(), and the spanner scan checks
// the context at the same 64-answer stride.
func (s *Store) QueryContext(ctx context.Context, q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	k := slabOf(s.cuts, q.X)
	// The probe span parents the shard's pager_miss attribution (the
	// SyncIndex synthesizes it from pctx), so a traced fan-out shows which
	// shard's pool went cold.
	pctx, sp := trace.StartSpan(ctx, trace.StageShardProbe)
	if sp != nil {
		sp.TagInt("shard", int64(k))
	}
	st, err := s.shards[k].Index().QueryContext(pctx, q, emit)
	if sp != nil {
		sp.TagInt("pages_read", st.PagesRead)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			sp.Tag("cancelled", "true")
		}
		sp.End()
	}
	if err != nil {
		return st, err
	}
	if k > 0 {
		_, ssp := trace.StartSpan(ctx, trace.StageSpannerScan)
		if ssp != nil {
			ssp.TagInt("cut", int64(k-1))
		}
		scanned := 0
		for i, sg := range s.spanners(k - 1) {
			// Descending-MaxX order: once a spanner ends left of the
			// query, every later one does too.
			if sg.MaxX() < q.X {
				break
			}
			scanned++
			if i&0x3f == 0x3f && ctx.Err() != nil {
				if ssp != nil {
					ssp.TagInt("scanned", int64(scanned))
					ssp.Tag("cancelled", "true")
					ssp.End()
				}
				return st, ctx.Err()
			}
			if q.Hits(sg) {
				emit(sg)
				st.Reported++
			}
		}
		if ssp != nil {
			ssp.TagInt("scanned", int64(scanned))
			ssp.End()
		}
	}
	return st, nil
}

// QueryBatchContext scatter-gathers a batch: segdb.QueryBatchContext's
// bounded worker pool pulls queries off a shared cursor and each lands
// on its owning shard, so queries of different slabs proceed on
// different locks, different buffer pools and different counter cache
// lines — the parallel speedup sharding buys. The single-index contract
// carries over verbatim: len(queries) results in order, per-query Stats
// (whose merge across a fan-out segdb.MergeBatchStats defines), and on
// cancellation partial results with ctx's error on the queries that did
// not finish.
func (s *Store) QueryBatchContext(ctx context.Context, queries []segdb.Query, parallelism int) []segdb.BatchResult {
	return segdb.QueryBatchContext(ctx, s, queries, parallelism)
}
