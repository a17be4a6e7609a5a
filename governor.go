package segdb

import (
	"context"
	"sync"
	"time"
)

// This file is the background compaction governor: the autonomous
// maintenance loop that keeps a DurableIndex's WAL (and so its
// restart-replay time) bounded without an operator calling Compact. The
// paper's update story (Theorem 1(iii)) only gives logarithmic
// amortized maintenance if the checkpoint+replay pair stays bounded —
// an unattended leader accumulating an unbounded log is exactly the
// failure the governor exists to prevent.

// CompactUnit is one compactable log-backed index the governor watches:
// a DurableIndex directly, or one shard of a shard.Store. Compact must
// be safe to call concurrently with serving traffic (DurableIndex's is
// single-flight).
type CompactUnit interface {
	Compact() error
	WALStats() (records, size, durable int64)
}

// GovernorConfig tunes the compaction governor. The one trigger unit is
// the WAL's record count — frames are a fixed wal.RecordSize, so a byte
// threshold would be the same number in another unit.
type GovernorConfig struct {
	// Records triggers compaction of a unit once its WAL holds at least
	// this many records; 0 disables the governor (it never fires).
	Records int64
	// Interval is Run's poll cadence; 0 selects one second.
	Interval time.Duration
	// MinInterval is the per-unit backoff: once a unit's compaction
	// finishes (success or failure), the governor will not start
	// another for it until this much time has passed, no matter how hot
	// the write stream is. 0 selects Interval.
	MinInterval time.Duration
	// Hysteresis is the fraction of a threshold below which a unit's
	// pending trigger clears. A unit latches "wanted" at or above a
	// threshold and stays wanted — across deferrals, backoff and failed
	// attempts — until it drops below Hysteresis×threshold, so a
	// trigger deferred by the lag guard cannot be lost to a small dip.
	// 0 selects 0.5; values ≥ 1 behave as exactly-at-threshold.
	Hysteresis float64
	// Parallel bounds how many units compact concurrently in one poll
	// pass — the shard-store stagger. 0 selects 1.
	Parallel int
	// Defer, when non-nil, is consulted before firing a unit; returning
	// ok=true defers the compaction (the trigger stays latched). The
	// replication lag guard lives here. A unit at or past twice its
	// threshold overrides the deferral — a guard must delay rotation,
	// not starve it into the unbounded-WAL failure the governor
	// prevents.
	Defer func() (reason string, ok bool)
	// OnCompact observes every completed compaction attempt: the unit
	// index, how long it took, and its error (nil on success).
	OnCompact func(unit int, took time.Duration, err error)
	// OnDefer observes every deferral the Defer hook caused.
	OnDefer func(unit int, reason string)
	// Logf, when non-nil, receives one line per fired compaction and
	// per deferral.
	Logf func(format string, args ...any)
}

// Governor watches a set of CompactUnits and compacts each one whose
// WAL crosses the configured thresholds, off the write path. Create
// with NewGovernor, then either drive Poll directly (tests) or start
// Run in a goroutine (segdbd).
type Governor struct {
	units []CompactUnit
	cfg   GovernorConfig
	now   func() time.Time // injectable clock for deterministic tests

	mu    sync.Mutex
	state []govUnitState
}

// govUnitState is the governor's per-unit memory.
type govUnitState struct {
	wanted  bool      // trigger latched: a threshold was crossed and not yet resolved
	running bool      // a compaction for this unit is in flight
	lastEnd time.Time // when the last compaction attempt finished
}

// NewGovernor builds a governor over units, applying config defaults.
func NewGovernor(units []CompactUnit, cfg GovernorConfig) *Governor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = cfg.Interval
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 0.5
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	return &Governor{
		units: units,
		cfg:   cfg,
		now:   time.Now,
		state: make([]govUnitState, len(units)),
	}
}

// over reports whether the unit's WAL is at or past the configured
// threshold scaled by factor: factor 1 is the trigger test, the
// Hysteresis fraction is the clear test, and 2 is the deferral
// override.
func (g *Governor) over(records int64, factor float64) bool {
	return g.cfg.Records > 0 && float64(records) >= factor*float64(g.cfg.Records)
}

// Poll runs one governor pass: it re-evaluates every unit's trigger
// latch against the thresholds, then compacts the due units with at
// most Parallel in flight, waiting for them to finish. It returns how
// many compactions it started. Poll is safe to call concurrently with
// itself and with Run (a unit already running is skipped), though
// normal operation drives it from one loop.
func (g *Governor) Poll() int {
	var due []int // indexes into g.units

	now := g.now()
	g.mu.Lock()
	for i, u := range g.units {
		st := &g.state[i]
		if st.running {
			continue
		}
		records, _, _ := u.WALStats()
		if g.over(records, 1) {
			st.wanted = true
		} else if !g.over(records, g.cfg.Hysteresis) {
			st.wanted = false
		}
		if !st.wanted || now.Sub(st.lastEnd) < g.cfg.MinInterval {
			continue
		}
		if g.cfg.Defer != nil && !g.over(records, 2) {
			if reason, ok := g.cfg.Defer(); ok {
				if g.cfg.OnDefer != nil {
					g.cfg.OnDefer(i, reason)
				}
				if g.cfg.Logf != nil {
					g.cfg.Logf("auto-compact: unit %d deferred: %s", i, reason)
				}
				continue
			}
		}
		st.running = true
		due = append(due, i)
	}
	g.mu.Unlock()

	if len(due) == 0 {
		return 0
	}
	sem := make(chan struct{}, g.cfg.Parallel)
	var wg sync.WaitGroup
	for _, unit := range due {
		wg.Add(1)
		go func(unit int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := g.now()
			err := g.units[unit].Compact()
			took := g.now().Sub(start)
			g.mu.Lock()
			st := &g.state[unit]
			st.running = false
			st.lastEnd = g.now()
			// The latch survives a failure (the records are still there);
			// on success the next poll's hysteresis test clears it.
			g.mu.Unlock()
			if g.cfg.OnCompact != nil {
				g.cfg.OnCompact(unit, took, err)
			}
			if g.cfg.Logf != nil {
				if err != nil {
					g.cfg.Logf("auto-compact: unit %d failed after %v: %v", unit, took, err)
				} else {
					g.cfg.Logf("auto-compact: unit %d compacted in %v", unit, took)
				}
			}
		}(unit)
	}
	wg.Wait()
	return len(due)
}

// Run polls until ctx is cancelled. Start it in a goroutine; cancel the
// context and wait for Run to return before closing the underlying
// index, so no compaction races the shutdown.
func (g *Governor) Run(ctx context.Context) {
	t := time.NewTicker(g.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.Poll()
		}
	}
}
