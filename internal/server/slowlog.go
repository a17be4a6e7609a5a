package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"segdb"
)

// SlowEntry is one logged slow request: enough to answer "why was this
// slow" without a second trip — the query shape, what it cost in wall
// clock and in the paper's I/O measure, what it returned, and whether the
// server was shedding or draining around it (a slow request during drain
// or heavy shedding is a different diagnosis than one in calm traffic).
type SlowEntry struct {
	Time      time.Time `json:"time"`
	Endpoint  string    `json:"endpoint"`
	Query     string    `json:"query"` // compact shape, e.g. "x=3.2 y=[0,5]", "batch[128]" or "insert #7"
	Status    string    `json:"status"`
	ElapsedMS float64   `json:"elapsed_ms"`
	// StallMS is set on compact entries: the part of ElapsedMS the
	// compaction held the update lock, i.e. what writers waited for.
	StallMS      float64 `json:"stall_ms,omitempty"`
	PagesRead    int64   `json:"pages_read"`
	PoolHits     int64   `json:"pool_hits"`
	PagesWritten int64   `json:"pages_written,omitempty"`
	Answers      int     `json:"answers"`
	Inflight     int     `json:"inflight"`
	Draining     bool    `json:"draining,omitempty"`
	// TraceID links the entry to its request's trace: when the request was
	// traced (sample rate > 0), /tracez?all=1 or the trace JSONL sink can
	// be joined on it for the full span tree. Slow traces are tail-kept, so
	// a latency-triggered entry's trace is in the ring by construction.
	TraceID string `json:"trace_id,omitempty"`
	// Batch carries a batch request's per-subquery attribution.
	Batch *BatchSlow `json:"batch,omitempty"`
}

// BatchSlow is a slow batch entry's per-subquery attribution: which
// subquery dominated the wall clock, which read the most pages, and how
// many were cancelled — so a slow "batch[512]" row names its culprits
// without replaying the batch.
type BatchSlow struct {
	SlowestIndex  int     `json:"slowest_index"`
	SlowestMS     float64 `json:"slowest_ms"`
	HeaviestIndex int     `json:"heaviest_index"`
	HeaviestPages int64   `json:"heaviest_pages"`
	Cancelled     int     `json:"cancelled,omitempty"`
}

// batchSlow derives the attribution from a batch's results; nil when the
// batch was empty.
func batchSlow(results []segdb.BatchResult) *BatchSlow {
	if len(results) == 0 {
		return nil
	}
	b := &BatchSlow{}
	for i, r := range results {
		if r.Elapsed > results[b.SlowestIndex].Elapsed {
			b.SlowestIndex = i
		}
		if r.Stats.PagesRead > results[b.HeaviestIndex].Stats.PagesRead {
			b.HeaviestIndex = i
		}
		if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
			b.Cancelled++
		}
	}
	b.SlowestMS = float64(results[b.SlowestIndex].Elapsed) / 1e6
	b.HeaviestPages = results[b.HeaviestIndex].Stats.PagesRead
	return b
}

// SlowLog is a bounded ring of recent slow requests plus an optional
// sink. Record is called on the request path, but only for requests that
// crossed a threshold, so the ring mutex sees slow-request rates, not
// traffic rates. The sink (if any) runs synchronously under the same
// call; keep it fast — segdbd wraps a buffered JSONL writer around it.
type SlowLog struct {
	latency time.Duration // > 0: log requests slower than this
	ioPages int64         // > 0: log requests reading more pages than this
	sink    func(SlowEntry)

	mu    sync.Mutex
	ring  []SlowEntry
	next  int
	total int64
}

// NewSlowLog returns a slow-query log holding the last capacity entries.
// A request is logged when latency > 0 and it ran longer, or when
// ioPages > 0 and it read more physical pages. sink may be nil.
func NewSlowLog(capacity int, latency time.Duration, ioPages int64, sink func(SlowEntry)) *SlowLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &SlowLog{
		latency: latency,
		ioPages: ioPages,
		ring:    make([]SlowEntry, 0, capacity),
		sink:    sink,
	}
}

// Crossed reports whether a request with this cost must be logged.
func (l *SlowLog) Crossed(elapsed time.Duration, pagesRead int64) bool {
	if l == nil {
		return false
	}
	return (l.latency > 0 && elapsed > l.latency) ||
		(l.ioPages > 0 && pagesRead > l.ioPages)
}

// Record appends e to the ring, evicting the oldest entry when full, and
// forwards it to the sink.
func (l *SlowLog) Record(e SlowEntry) {
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.ring)
	l.total++
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// SlowLogSnapshot is the /statsz?slow=1 document: how many requests ever
// crossed a threshold, the ring capacity, and the retained entries,
// newest first.
type SlowLogSnapshot struct {
	Total    int64       `json:"total"`
	Capacity int         `json:"capacity"`
	Entries  []SlowEntry `json:"entries"`
}

// Snapshot copies the ring, newest first.
func (l *SlowLog) Snapshot() SlowLogSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := SlowLogSnapshot{
		Total:    l.total,
		Capacity: cap(l.ring),
		Entries:  make([]SlowEntry, 0, len(l.ring)),
	}
	// The ring is chronological from next onward (once wrapped); walk it
	// backwards so the snapshot leads with the most recent entry.
	for i := 0; i < len(l.ring); i++ {
		j := (l.next - 1 - i + len(l.ring)) % len(l.ring)
		s.Entries = append(s.Entries, l.ring[j])
	}
	return s
}

// querySummary renders the request's query shape compactly for the slow
// log: single queries show their bounds, batches only their size (the
// individual queries of a big batch would bloat every entry).
func querySummary(req *QueryRequest) string {
	if req.Queries != nil {
		return fmt.Sprintf("batch[%d]", len(req.Queries))
	}
	return querySpecSummary(req.QuerySpec)
}

// updateSummary renders an update request's shape for the slow log.
func updateSummary(ep Endpoint, req *UpdateRequest) string {
	return fmt.Sprintf("%s #%d", endpointNames[ep], req.ID)
}

func querySpecSummary(q QuerySpec) string {
	x := strconv.FormatFloat(q.X, 'g', -1, 64)
	switch {
	case q.YLo == nil && q.YHi == nil:
		return "x=" + x + " line"
	case q.YLo == nil:
		return "x=" + x + " y≤" + strconv.FormatFloat(*q.YHi, 'g', -1, 64)
	case q.YHi == nil:
		return "x=" + x + " y≥" + strconv.FormatFloat(*q.YLo, 'g', -1, 64)
	default:
		return fmt.Sprintf("x=%s y=[%s,%s]", x,
			strconv.FormatFloat(*q.YLo, 'g', -1, 64),
			strconv.FormatFloat(*q.YHi, 'g', -1, 64))
	}
}
