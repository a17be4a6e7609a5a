package segdb

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"segdb/internal/trace"
)

// BatchResult is the outcome of one query of a QueryBatch: the answers in
// emit order, the per-query work attribution, its wall-clock duration,
// and the query's own error, so one failing query does not discard its
// siblings' results.
type BatchResult struct {
	Hits  []Segment
	Stats QueryStats
	// Elapsed is the query's own wall time inside the batch — what the
	// slow log's per-subquery attribution and the per-subquery trace
	// spans report. Zero for queries cancelled before they started.
	Elapsed time.Duration
	Err     error
}

// QueryBatch answers queries[i] into result[i] using up to parallelism
// concurrent workers. It is QueryBatchContext without a deadline.
func QueryBatch(ix Index, queries []Query, parallelism int) []BatchResult {
	return QueryBatchContext(context.Background(), ix, queries, parallelism)
}

// querier is all the batch runner asks of an index — every Index has it,
// and so does a sharded store, which is not an Index.
type querier interface {
	Query(q Query, emit func(Segment)) (QueryStats, error)
}

// contextQuerier is the optional interface of indexes whose queries can
// be aborted mid-emission; *SyncIndex implements it.
type contextQuerier interface {
	QueryContext(ctx context.Context, q Query, emit func(Segment)) (QueryStats, error)
}

// QueryBatchContext answers queries[i] into result[i] using up to
// parallelism concurrent workers, honouring ctx: once ctx is done, no
// further query starts, and an index supporting per-query cancellation
// (QueryContext, as *SyncIndex provides) also aborts the queries already
// running. The returned slice always has len(queries) entries; a query
// that was cancelled — before starting or mid-run — carries ctx's error
// in its Err, so callers get partial results for the queries that did
// complete rather than an all-or-nothing timeout. Parallelism 1 runs the
// queries sequentially on the calling goroutine; parallelism ≤ 0 selects
// GOMAXPROCS workers — the "just use the machine" default, so a zero
// value never silently serializes a large batch.
//
// For parallelism > 1 the index must be safe for concurrent queries:
// wrap it with Synchronized, whose shared-lock queries run truly in
// parallel on the sharded store. Workers pull queries from a shared
// cursor, so a few expensive queries do not stall the rest of the batch
// behind a static partition.
func QueryBatchContext(ctx context.Context, ix querier, queries []Query, parallelism int) []BatchResult {
	out := make([]BatchResult, len(queries))
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(queries) {
		parallelism = len(queries)
	}
	if parallelism == 1 {
		for i, q := range queries {
			out[i] = runBatchQuery(ctx, ix, q, i)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				out[i] = runBatchQuery(ctx, ix, queries[i], i)
			}
		}()
	}
	wg.Wait()
	return out
}

// QueryBatchContext answers queries through the synchronized index — the
// method form of the package-level function, so every batch-serving index
// (a lone SyncIndex, a sharded store) exposes the same surface.
func (s *SyncIndex) QueryBatchContext(ctx context.Context, queries []Query, parallelism int) []BatchResult {
	return QueryBatchContext(ctx, s, queries, parallelism)
}

// MergeBatchStats defines the merged QueryStats of a batch fan-out:
// every counter sums across the per-query stats. In particular
// PagesRead and PoolHits sum across whichever stores the queries touched
// — for a sharded store, across shards — so the merged PagesRead remains
// the batch's total cost in the paper's I/O model no matter how the work
// was scattered. Queries that errored (including ones cancelled by ctx)
// still contribute the work they did before stopping.
func MergeBatchStats(results []BatchResult) QueryStats {
	var t QueryStats
	for _, r := range results {
		t.FirstLevelNodes += r.Stats.FirstLevelNodes
		t.Reported += r.Stats.Reported
		t.GListSearches += r.Stats.GListSearches
		t.GBridgeJumps += r.Stats.GBridgeJumps
		t.GFallbacks += r.Stats.GFallbacks
		t.PagesRead += r.Stats.PagesRead
		t.PoolHits += r.Stats.PoolHits
		t.MissNanos += r.Stats.MissNanos
	}
	return t
}

// runBatchQuery runs queries[i] and, when the batch is traced, brackets
// it with a query span. The PR-6 cancellation contract extends to spans:
// a cancelled subquery — before starting or mid-run — still closes its
// span, tagged cancelled, so a traced timed-out batch shows exactly which
// subqueries ran, which aborted, and which never started.
func runBatchQuery(ctx context.Context, ix querier, q Query, i int) BatchResult {
	var r BatchResult
	qctx, sp := trace.StartSpan(ctx, trace.StageQuery)
	if sp != nil {
		sp.TagInt("i", int64(i))
		defer sp.End()
	}
	// A done context fails the remaining queries immediately — a worker
	// never starts work past the deadline.
	if err := ctx.Err(); err != nil {
		r.Err = err
		sp.Tag("cancelled", "true")
		return r
	}
	start := time.Now()
	emit := func(s Segment) { r.Hits = append(r.Hits, s) }
	if cq, ok := ix.(contextQuerier); ok {
		r.Stats, r.Err = cq.QueryContext(qctx, q, emit)
	} else {
		r.Stats, r.Err = ix.Query(q, emit)
	}
	r.Elapsed = time.Since(start)
	if sp != nil {
		sp.TagInt("answers", int64(len(r.Hits)))
		sp.TagInt("pages_read", r.Stats.PagesRead)
		if r.Err != nil {
			if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
				sp.Tag("cancelled", "true")
			} else {
				sp.Tag("error", r.Err.Error())
			}
		}
	}
	return r
}
