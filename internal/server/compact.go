package server

import (
	"sync"
	"time"
)

// CompactStats is the serving layer's compaction registry: one per
// Server, fed by the admin endpoint and by the background governor
// through ObserveCompaction/ObserveCompactDeferral. All methods are
// safe for concurrent use.
type CompactStats struct {
	mu       sync.Mutex
	total    int64
	failures int64
	auto     int64
	deferred int64
	lastEnd  time.Time
	lastDur  time.Duration
	lastHeld time.Duration
}

// CompactSnapshot is the /statsz compaction section. LastAgeSeconds is
// negative when no compaction has completed yet (the age is unknown,
// not zero — a freshly compacted store would read zero). LastDurationMS
// is how long the last compaction ran, nearly all of it beside the
// writers; LastStallMS is the part of it that held the update lock.
type CompactSnapshot struct {
	Total          int64   `json:"total"`
	Failures       int64   `json:"failures"`
	Auto           int64   `json:"auto"`
	Deferred       int64   `json:"deferred"`
	LastAgeSeconds float64 `json:"last_age_seconds"`
	LastDurationMS float64 `json:"last_duration_ms"`
	LastStallMS    float64 `json:"last_stall_ms"`
}

func (c *CompactStats) observe(auto bool, took, held time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if failed {
		c.failures++
	}
	if auto {
		c.auto++
	}
	c.lastEnd = time.Now()
	c.lastDur = took
	c.lastHeld = held
}

func (c *CompactStats) deferral() {
	c.mu.Lock()
	c.deferred++
	c.mu.Unlock()
}

// Snapshot reads the registry at a point in time.
func (c *CompactStats) Snapshot() CompactSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CompactSnapshot{
		Total:          c.total,
		Failures:       c.failures,
		Auto:           c.auto,
		Deferred:       c.deferred,
		LastAgeSeconds: -1,
		LastDurationMS: float64(c.lastDur) / 1e6,
		LastStallMS:    float64(c.lastHeld) / 1e6,
	}
	if !c.lastEnd.IsZero() {
		s.LastAgeSeconds = time.Since(c.lastEnd).Seconds()
	}
	return s
}

// ObserveCompaction records one completed compaction attempt — auto
// marks the background governor's, as opposed to the admin endpoint's
// or shutdown's — and slow-logs it when it ran longer than the
// SlowCompact budget. took is the attempt's run time. A compaction
// builds its checkpoint beside the writers and holds the update path's
// lock only to mark and to publish; that part — the stall a client can
// see — is read from the Updater (LastCompactStall) and recorded next
// to the run time. The budget judges the run time: a compaction that
// runs long is burning CPU and I/O beside the traffic even when nobody
// waits for it.
func (s *Server) ObserveCompaction(auto bool, took time.Duration, err error) {
	var held time.Duration
	if s.staller != nil {
		held = s.staller.LastCompactStall()
	}
	s.compacts.observe(auto, took, held, err != nil)
	if s.cfg.SlowCompact < 0 || took < s.cfg.SlowCompact {
		return
	}
	status := "ok"
	if err != nil {
		status = "failure"
	}
	kind := "admin"
	if auto {
		kind = "auto"
	}
	s.slow.Record(SlowEntry{
		Time:      time.Now(),
		Endpoint:  "compact",
		Query:     kind,
		Status:    status,
		ElapsedMS: float64(took) / 1e6,
		StallMS:   float64(held) / 1e6,
		Inflight:  s.gate.Inflight(),
		Draining:  s.gate.Draining(),
	})
}

// ObserveCompactDeferral records the governor deferring a due
// compaction (the replication lag guard).
func (s *Server) ObserveCompactDeferral() { s.compacts.deferral() }

// CompactStats exposes the compaction registry, e.g. for tests.
func (s *Server) CompactStats() CompactSnapshot { return s.compacts.Snapshot() }
