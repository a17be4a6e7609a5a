// Package pager simulates secondary storage for external-memory data
// structures in the I/O model of Aggarwal and Vitter, which is the cost
// model used throughout Bertino, Catania and Shidlovsky's "Towards Optimal
// Indexing for Segment Databases" (EDBT 1998).
//
// A Store manages fixed-size pages on a Device and counts every physical
// block transfer. Data structures built on a Store perform all data access
// through Read and Write, so the Stats counters are faithful I/O-model
// costs rather than wall-clock proxies. A small LRU buffer pool models the
// constant-size internal memory that external-memory algorithms are allowed
// to use; reads served by the pool are counted as cache hits, not I/Os.
//
// # Concurrency
//
// Store is a concurrent buffer manager. The pool, its write-version
// bookkeeping and the I/O counters are sharded by PageID (see shard.go):
// readers of pages in different shards share no lock and no counter cache
// line, so cache hits scale with goroutines. Within a shard, locks are
// held only for map and list operations, never across device I/O.
//
// Three mechanisms keep the concurrent pool coherent and the counters
// faithful:
//
//   - Version-stamped fills. Every page has a write epoch. A cold read
//     records the epoch before its off-lock device read; the resulting
//     pool fill is discarded if the epoch moved, so a slow reader can
//     never overwrite a concurrent Write's fresh pool entry with stale
//     bytes.
//   - Singleflight cold reads. Concurrent pool misses of the same page
//     share one physical read: the first reader goes to the device,
//     the rest wait for its result. K concurrent first-readers of a page
//     cost exactly 1 in Stats.Reads, making I/O accounting deterministic
//     under concurrency.
//   - Per-shard write ordering. Writes to pages of one shard serialize
//     their device I/O and pool refresh, so the pool never holds an image
//     older than the device.
//
// In a single-goroutine run the counting rules are exactly the classical
// ones (a pool hit is one cache hit, a miss is one physical read, a write
// is one physical write), so I/O-model experiments are unaffected by the
// concurrent machinery.
//
// # Per-operation attribution
//
// The counters are store-global: the pager does not know which query a
// Read belongs to. Callers attribute I/O to an operation by bracketing it
// with ReadWindow (or Stats) and differencing — segdb.SyncIndex does this
// for every query it runs. The resulting attribution is exact when
// operations do not overlap in time. Under concurrency it is a window
// measure with two documented skews: (1) a query's window also counts
// reads issued by queries overlapping it, so per-query figures are upper
// bounds whose sum over-counts roughly by the overlap factor; (2) a
// singleflight-shared cold read is counted once, in the window of every
// query open while it happened — the leader's physical read is the only
// one that exists, so the global Reads counter stays exact even though
// several windows observe it. Aggregate counters (Stats, StatsByShard)
// are always exact regardless of concurrency.
package pager

import (
	"errors"
	"fmt"
	"sync"
)

// PageID identifies an allocated page. The zero value is never a valid
// page, so it can be used as a null pointer inside on-disk structures.
type PageID uint32

// InvalidPage is the null page reference.
const InvalidPage PageID = 0

// Stats accumulates I/O-model costs. Reads and Writes count physical block
// transfers; CacheHits counts reads served by the buffer pool.
type Stats struct {
	Reads     int64 // physical page reads
	Writes    int64 // physical page writes
	CacheHits int64 // reads served from the buffer pool
	Allocs    int64 // pages allocated
	Frees     int64 // pages freed
}

// IOs returns the total number of physical block transfers.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// HitRatio returns the fraction of page reads served by the buffer pool,
// or 0 if no reads happened.
func (s Stats) HitRatio() float64 {
	total := s.Reads + s.CacheHits
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Add returns the component-wise sum s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:     s.Reads + o.Reads,
		Writes:    s.Writes + o.Writes,
		CacheHits: s.CacheHits + o.CacheHits,
		Allocs:    s.Allocs + o.Allocs,
		Frees:     s.Frees + o.Frees,
	}
}

// Sub returns the component-wise difference s - o, for measuring the cost
// of a single operation between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:     s.Reads - o.Reads,
		Writes:    s.Writes - o.Writes,
		CacheHits: s.CacheHits - o.CacheHits,
		Allocs:    s.Allocs - o.Allocs,
		Frees:     s.Frees - o.Frees,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d hits=%d allocs=%d frees=%d",
		s.Reads, s.Writes, s.CacheHits, s.Allocs, s.Frees)
}

// Store manages pages of a fixed size on a Device, with allocation, a
// sharded LRU buffer pool, and I/O accounting.
//
// Store is safe for concurrent use by any mix of readers and writers; see
// the package comment for the coherence guarantees. The index structures
// above it are not concurrent on the write side: they cache handles in
// memory, so writers need external synchronization — the public package
// provides segdb.Synchronized for that. Concurrent readers of a quiescent
// index are safe and scale across pool shards.
type Store struct {
	dev       Device
	pageSize  int
	shards    []shard
	shardMask uint32

	allocMu sync.Mutex // guards next and free
	next    PageID
	free    []PageID
}

// ErrPageSize reports a page buffer whose length does not match the store's
// page size.
var ErrPageSize = errors.New("pager: buffer length does not match page size")

// Open creates a Store over dev with the given page size in bytes and a
// buffer pool of poolPages pages. poolPages may be zero, in which case every
// read is a physical read — the strictest interpretation of the I/O model.
// The pool is split across up to 16 PageID-hashed shards (never more shards
// than pool pages, so small pools stay fully usable).
func Open(dev Device, pageSize, poolPages int) (*Store, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("pager: invalid page size %d", pageSize)
	}
	if poolPages < 0 {
		return nil, fmt.Errorf("pager: invalid pool size %d", poolPages)
	}
	n := shardCountFor(poolPages)
	s := &Store{
		dev:       dev,
		pageSize:  pageSize,
		shards:    make([]shard, n),
		shardMask: uint32(n - 1),
	}
	for i := range s.shards {
		capacity := poolPages / n
		if i < poolPages%n {
			capacity++
		}
		s.shards[i].pool = newLRUPool(capacity)
		s.shards[i].epochs = make(map[PageID]uint64)
		s.shards[i].inflight = make(map[PageID]*flight)
	}
	return s, nil
}

// MustOpenMem returns a Store over a fresh in-memory device. It is a
// convenience for tests and benchmarks, where the configuration is static
// and cannot fail.
func MustOpenMem(pageSize, poolPages int) *Store {
	s, err := Open(NewMemDevice(pageSize), pageSize, poolPages)
	if err != nil {
		panic(err)
	}
	return s
}

// PageSize returns the size of every page in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Shards returns the number of buffer-pool shards.
func (s *Store) Shards() int { return len(s.shards) }

// Alloc reserves a new page and returns its ID. The page contents are
// undefined until the first Write.
func (s *Store) Alloc() PageID {
	s.allocMu.Lock()
	var id PageID
	if k := len(s.free); k > 0 {
		id = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.next++
		id = s.next
	}
	s.allocMu.Unlock()
	s.shard(id).stats.allocs.Add(1)
	return id
}

// Free releases a page for reuse. Freeing InvalidPage is a no-op; freeing a
// page twice corrupts the allocator and is the caller's responsibility to
// avoid, as with any disk-space manager.
func (s *Store) Free(id PageID) {
	if id == InvalidPage {
		return
	}
	sh := s.shard(id)
	sh.mu.Lock()
	if sh.pool.capacity > 0 {
		sh.epochs[id]++ // an in-flight fill must not resurrect the page
		sh.pool.drop(id)
	}
	delete(sh.inflight, id)
	sh.mu.Unlock()
	sh.stats.frees.Add(1)
	s.allocMu.Lock()
	s.free = append(s.free, id)
	s.allocMu.Unlock()
}

// PagesInUse returns the number of currently allocated pages: the
// structure's space cost in blocks.
func (s *Store) PagesInUse() int {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return int(s.next) - len(s.free)
}

// NextPage returns the high-water mark of the allocator: the first page
// ID that was never allocated. Catalogs persist it so a reopened store
// does not hand out pages that already hold data.
func (s *Store) NextPage() PageID {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	return s.next + 1
}

// Reserve raises the allocator high-water mark so that every page below
// upTo is treated as allocated. It is how a catalog restores allocation
// state on reopen; the in-session free list is not persisted, so space
// freed in earlier sessions is not reclaimed (a real system would keep a
// free-space map — out of scope for the I/O-model experiments).
func (s *Store) Reserve(upTo PageID) {
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	if upTo > s.next+1 {
		s.next = upTo - 1
	}
}

// Read returns the contents of page id. The returned slice is owned by the
// caller and remains valid indefinitely. A read served by the buffer pool
// is counted as a cache hit; otherwise it is one physical read, shared by
// every goroutine concurrently missing the same page.
func (s *Store) Read(id PageID) ([]byte, error) {
	if id == InvalidPage {
		return nil, errors.New("pager: read of invalid page")
	}
	sh := s.shard(id)
	sh.mu.Lock()
	if data, ok := sh.pool.get(id); ok {
		// Pool buffers are immutable once installed, so the copy can
		// happen off-lock; eviction or replacement only drops references.
		sh.mu.Unlock()
		sh.stats.cacheHits.Add(1)
		out := make([]byte, s.pageSize)
		copy(out, data)
		return out, nil
	}
	return s.readMiss(sh, id) // releases sh.mu
}

// Write stores data as the new contents of page id (write-through: one
// physical write) and refreshes the buffer pool. Writes to pages of the
// same shard serialize; reads are never blocked by a write's device I/O.
func (s *Store) Write(id PageID, data []byte) error {
	if id == InvalidPage {
		return errors.New("pager: write to invalid page")
	}
	if len(data) != s.pageSize {
		return fmt.Errorf("%w: got %d, want %d", ErrPageSize, len(data), s.pageSize)
	}
	sh := s.shard(id)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	if err := s.dev.WritePage(uint32(id-1), data); err != nil {
		return fmt.Errorf("pager: write page %d: %w", id, err)
	}
	var cp []byte
	if sh.pool.capacity > 0 {
		cp = make([]byte, len(data)) // pool buffers are immutable: fresh copy
		copy(cp, data)
	}
	sh.stats.writes.Add(1)
	sh.mu.Lock()
	if cp != nil {
		sh.epochs[id]++ // discard fills of concurrent readers still off-lock
		sh.pool.put(id, cp)
	}
	// Detach any in-flight cold read: readers arriving from now on must
	// not share its (possibly pre-write) bytes and will start afresh.
	delete(sh.inflight, id)
	sh.mu.Unlock()
	return nil
}

// Stats returns a snapshot of the accumulated counters, summed over all
// shards. Under concurrent traffic the snapshot is internally consistent
// per counter, not across counters.
func (s *Store) Stats() Stats {
	var total Stats
	for i := range s.shards {
		total = total.Add(s.shards[i].stats.snapshot())
	}
	return total
}

// ReadWindow returns the read-path counters (physical reads and pool
// hits) plus the accumulated miss fill time in nanoseconds (device-read
// time on singleflight leaders plus block time of waiters), summed over
// all shards. It is the cheap form of Stats for per-query attribution:
// three atomic loads per shard, called twice per query on the serving
// path, so it does not touch the write/alloc counters it does not need.
// Window semantics: exact while operations do not overlap, an upper bound
// under concurrency.
func (s *Store) ReadWindow() (reads, hits, missNanos int64) {
	for i := range s.shards {
		c := &s.shards[i].stats
		reads += c.reads.Load()
		hits += c.cacheHits.Load()
		missNanos += c.missNanos.Load()
	}
	return reads, hits, missNanos
}

// WriteStats returns the physical page writes, summed over all shards —
// the write-path sibling of ReadWindow, for per-update attribution.
func (s *Store) WriteStats() (writes int64) {
	for i := range s.shards {
		writes += s.shards[i].stats.writes.Load()
	}
	return writes
}

// StatsByShard returns a per-shard snapshot of the counters: the
// observability hook for checking hit-ratio and load balance across the
// pool shards. Events are attributed to the shard of the page they touch.
func (s *Store) StatsByShard() []Stats {
	out := make([]Stats, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].stats.snapshot()
	}
	return out
}

// ResetStats zeroes the I/O counters. Allocation state is unaffected.
func (s *Store) ResetStats() {
	for i := range s.shards {
		s.shards[i].stats.reset()
	}
}

// DropCache empties the buffer pool, so that subsequent reads are cold.
// Experiments call it between build and query phases. Fills from reads
// still in flight when the cache is dropped are discarded; with concurrent
// readers the pool is only guaranteed empty once they quiesce.
func (s *Store) DropCache() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.pool.reset()
		sh.gen++
		sh.mu.Unlock()
	}
}

// Sync flushes written pages to durable storage (fsync for a file-backed
// device, a no-op in memory). Call it after persisting a catalog and
// before Close, so a crash cannot lose a freshly built index.
func (s *Store) Sync() error { return s.dev.Sync() }

// Close releases the underlying device.
func (s *Store) Close() error { return s.dev.Close() }
