package segdb

import (
	"context"
	"strconv"
	"sync"
	"time"

	"segdb/internal/trace"
)

// SyncIndex wraps an Index for concurrent use: queries take a shared lock
// and run in parallel; updates take an exclusive lock. Reader parallelism
// is real: the paper's structures never mutate pages during queries, and
// the Store underneath is a sharded concurrent buffer manager — cache
// hits on pages of different shards share no lock and no counter cache
// line, concurrent cold misses of one page collapse into a single
// physical read, and pool fills are write-epoch-stamped so a slow reader
// can never resurrect stale bytes over a concurrent writer's fresh page
// (see internal/pager). QueryBatch exploits this with a worker pool.
type SyncIndex struct {
	mu    sync.RWMutex
	ix    Index
	st    *Store // non-nil: attribute per-query I/O from its counters
	fatal error  // latched by poison; fails every later query and update
}

// poison latches err permanently: every later query and update fails
// with it. DurableIndex latches it when a failed WAL append's rollback
// also fails — at that point the live state has diverged from anything
// recovery can rebuild, and serving reads from it would silently break
// the durability contract. Reopen to recover.
func (s *SyncIndex) poison(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal == nil {
		s.fatal = err
	}
}

// Synchronized wraps an index for concurrent use. The caller must stop
// using the unwrapped index directly.
func Synchronized(ix Index) *SyncIndex { return &SyncIndex{ix: ix} }

// SynchronizedOn is Synchronized with per-query I/O attribution: every
// query's QueryStats additionally carries the physical reads and pool
// hits st's counters recorded during the query's window (PagesRead,
// PoolHits). st must be the store the index lives on. Attribution is
// exact while queries do not overlap; under concurrent queries a window
// also sees overlapping queries' reads — see the pager package comment
// for the precise semantics under the sharded pool and singleflight.
func SynchronizedOn(ix Index, st *Store) *SyncIndex {
	return &SyncIndex{ix: ix, st: st}
}

// ioWindow brackets one query for I/O attribution; the zero value (no
// store) is inert.
type ioWindow struct {
	st         *Store
	r0, h0, m0 int64
}

func (s *SyncIndex) beginIO() ioWindow {
	w := ioWindow{st: s.st}
	if w.st != nil {
		w.r0, w.h0, w.m0 = w.st.ReadWindow()
	}
	return w
}

// end folds the window's read delta into st.
func (w ioWindow) end(st *QueryStats) {
	if w.st == nil {
		return
	}
	r1, h1, m1 := w.st.ReadWindow()
	st.PagesRead = r1 - w.r0
	st.PoolHits = h1 - w.h0
	st.MissNanos = m1 - w.m0
}

// Query implements the Index contract under a shared lock: QueryContext
// without a deadline.
func (s *SyncIndex) Query(q Query, emit func(Segment)) (QueryStats, error) {
	return s.QueryContext(context.Background(), q, emit)
}

// queryAborted unwinds a query whose context was cancelled mid-emission.
type queryAborted struct{}

// QueryContext runs Query under the shared lock, honouring ctx: a context
// already done returns immediately, and cancellation or deadline expiry
// during the query aborts result emission within a bounded number of
// further answers. The Index contract has no cancellation channel, so the
// abort unwinds through the emit callback; a query that touches many
// pages between answers is only interrupted at its next answer. On
// cancellation the segments already passed to emit remain delivered and
// the returned error is ctx.Err().
func (s *SyncIndex) QueryContext(ctx context.Context, q Query, emit func(Segment)) (QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return QueryStats{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.fatal != nil {
		return QueryStats{}, s.fatal
	}
	var (
		st  QueryStats
		err error
		n   int
	)
	w := s.beginIO()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(queryAborted); !ok {
					panic(r)
				}
				// The abort unwound past the `st, err = ...` assignment, so
				// st is still zero even though n segments were delivered.
				// Backfill what the emit wrapper counted — otherwise an
				// aborted query logs Reported=0 beside non-zero PagesRead,
				// internally inconsistent slow-log rows.
				st.Reported = n
			}
		}()
		st, err = s.ix.Query(q, func(sg Segment) {
			emit(sg)
			// ctx.Err is a mutex acquisition; amortize it across answers.
			if n++; n&0x3f == 0 && ctx.Err() != nil {
				panic(queryAborted{})
			}
		})
	}()
	w.end(&st)
	// Synthesize the pager span from the window's miss-fill time: the
	// pager itself has no context, so traced queries get their miss cost
	// attributed here, with the window's documented skew under overlap.
	if st.PagesRead > 0 && trace.Active(ctx) {
		trace.AddSpan(ctx, trace.StagePagerMiss, time.Duration(st.MissNanos),
			trace.Tag{K: "pages_read", V: strconv.FormatInt(st.PagesRead, 10)},
			trace.Tag{K: "pool_hits", V: strconv.FormatInt(st.PoolHits, 10)})
	}
	if cerr := ctx.Err(); cerr != nil {
		return st, cerr
	}
	return st, err
}

// Insert implements the Index contract under an exclusive lock.
func (s *SyncIndex) Insert(seg Segment) error {
	_, err := s.InsertStats(seg)
	return err
}

// Delete implements the Index contract under an exclusive lock.
func (s *SyncIndex) Delete(seg Segment) (bool, error) {
	found, _, err := s.DeleteStats(seg)
	return found, err
}

// UpdateStats is the I/O attribution of one Insert or Delete: the pages
// read, pool hits and physical pages written observed during the
// update's window. Like query attribution it is exact only while no
// other work overlaps the window; built without a store (Synchronized)
// it is always zero.
type UpdateStats struct {
	PagesRead    int64
	PoolHits     int64
	PagesWritten int64
}

// beginWrite opens an update attribution window; requires the exclusive
// lock (updates are serialized, so the window only sees concurrent
// readers' reads, never another update's writes).
func (s *SyncIndex) beginWrite() (ioWindow, int64) {
	w := s.beginIO()
	var w0 int64
	if s.st != nil {
		w0 = s.st.WriteStats()
	}
	return w, w0
}

func (s *SyncIndex) endWrite(w ioWindow, w0 int64) UpdateStats {
	var qs QueryStats
	w.end(&qs)
	u := UpdateStats{PagesRead: qs.PagesRead, PoolHits: qs.PoolHits}
	if s.st != nil {
		u.PagesWritten = s.st.WriteStats() - w0
	}
	return u
}

// InsertStats is Insert with I/O attribution: the same window bracketing
// queries get, extended with physical pages written.
func (s *SyncIndex) InsertStats(seg Segment) (UpdateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return UpdateStats{}, s.fatal
	}
	w, w0 := s.beginWrite()
	err := s.ix.Insert(seg)
	return s.endWrite(w, w0), err
}

// DeleteStats is Delete with I/O attribution.
func (s *SyncIndex) DeleteStats(seg Segment) (bool, UpdateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return false, UpdateStats{}, s.fatal
	}
	w, w0 := s.beginWrite()
	found, err := s.ix.Delete(seg)
	return found, s.endWrite(w, w0), err
}

// Len implements the Index contract under a shared lock.
func (s *SyncIndex) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.Len()
}

// Collect implements the Index contract under a shared lock.
func (s *SyncIndex) Collect() ([]Segment, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.fatal != nil {
		return nil, s.fatal
	}
	return s.ix.Collect()
}

// Drop implements the Index contract under an exclusive lock.
func (s *SyncIndex) Drop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.Drop()
}

// Compact rebuilds the wrapped index under an exclusive lock, so
// Compact(Synchronized(ix)) is safe against concurrent queries and
// updates. If the wrapped index does not support compaction the exclusive
// lock is still released and ErrUnsupported is returned — error paths
// never leave the index locked.
func (s *SyncIndex) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return s.fatal
	}
	if c, ok := s.ix.(compacter); ok {
		return c.Compact()
	}
	return ErrUnsupported
}

var _ Index = (*SyncIndex)(nil)
