// Package faultdev is a deterministic fault-injection wrapper for
// pager.Device: the one fault model shared by the core, catalog, sync
// and server test suites, and the engine of the crash-matrix tests that
// validate the shadow-file commit protocol.
//
// A Device counts every ReadPage/WritePage/Sync and can be scheduled,
// before or during a run, to
//
//   - start failing every operation after a budget of successful ones
//     (the classic dying-disk model, SetBudget),
//   - fail one specific operation number (FailAt), or
//   - crash at a specific operation number (CrashAt) — from then on every
//     operation returns ErrCrashed, and the durable image visible to a
//     later reopen contains exactly the writes covered by a completed
//     Sync, plus (optionally) torn prefixes of unsynced writes.
//
// Crash fidelity comes from write buffering: WritePage lands in a
// pending overlay (the OS page cache of the model) and only Sync flushes
// it to the inner device (the platter). Reads see pending writes, like a
// page cache does. Crash discards the overlay; with TornWrites enabled a
// seeded RNG instead flushes a prefix of some pending pages, modelling
// sector-granular partial writes that a checksum layer must catch. All
// scheduling is deterministic: same seed, same schedule, same run.
package faultdev

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"segdb/internal/pager"
)

// ErrInjected is the failure returned once a fault schedule trips.
var ErrInjected = errors.New("faultdev: injected device fault")

// ErrCrashed is returned by every operation after the device crashed.
var ErrCrashed = errors.New("faultdev: device crashed")

// Device wraps a pager.Device with deterministic fault injection. It is
// safe for concurrent use; the operation counter makes concurrent runs
// schedule-dependent but each injected fault stays deterministic for a
// serial caller (every test in this repo drives builds serially).
type Device struct {
	mu    sync.Mutex
	inner pager.Device
	rng   *rand.Rand

	ops     int64 // operations attempted so far (reads, writes, syncs)
	budget  int64 // remaining successful ops; <0 means unlimited
	failAt  int64 // operation number to fail once; <0 disabled
	crashAt int64 // operation number to crash at; <0 disabled

	crashed  bool
	tornFrac float64           // probability an unsynced write survives as a torn prefix
	pending  map[uint32][]byte // written but not yet synced
}

// New wraps inner with no faults scheduled. seed drives the RNG used for
// torn-write sizes, so a crash point plus a seed fully determines the
// post-crash image.
func New(inner pager.Device, seed int64) *Device {
	return &Device{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		budget:  -1,
		failAt:  -1,
		crashAt: -1,
		pending: make(map[uint32][]byte),
	}
}

// SetBudget arms the dying-disk model: the next n operations succeed,
// then every operation fails with ErrInjected. n < 0 disarms it.
func (d *Device) SetBudget(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.budget = n
}

// FailAt schedules the operation numbered op (0-based over all reads,
// writes and syncs) to fail once with ErrInjected.
func (d *Device) FailAt(op int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failAt = op
}

// CrashAt schedules a crash at operation number op: that operation and
// every later one return ErrCrashed, and unsynced writes are lost (or
// torn, see TornWrites).
func (d *Device) CrashAt(op int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashAt = op
}

// TornWrites makes a crash apply a random prefix of some unsynced pages
// to the durable image instead of dropping them whole: with probability
// frac a pending page survives partially. It models a disk that tears
// page writes at power loss.
func (d *Device) TornWrites(frac float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tornFrac = frac
}

// Crash crashes the device now, as if power was cut: pending writes are
// discarded (or torn), and every subsequent operation fails with
// ErrCrashed. The inner device then holds exactly the durable image a
// reopen would see.
func (d *Device) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crash()
}

// crash requires d.mu.
func (d *Device) crash() {
	if d.crashed {
		return
	}
	d.crashed = true
	for idx, p := range d.pending {
		if d.tornFrac > 0 && d.rng.Float64() < d.tornFrac {
			// A torn write: a prefix of the page reached the platter.
			// Cut at a "sector" boundary of 1/8th pages when possible.
			cut := 1 + d.rng.Intn(len(p))
			if sector := len(p) / 8; sector > 0 {
				cut = (1 + d.rng.Intn(8)) * sector
				if cut >= len(p) {
					cut = len(p) - 1
				}
			}
			torn := make([]byte, len(p))
			if err := d.inner.ReadPage(idx, torn); err != nil {
				// Page never durable before: the unwritten tail is zeroes.
				for i := range torn {
					torn[i] = 0
				}
			}
			copy(torn[:cut], p[:cut])
			d.inner.WritePage(idx, torn)
		}
	}
	d.pending = make(map[uint32][]byte)
}

// Ops returns the number of operations attempted so far (including the
// failed ones). A fault-free counting run bounds the crash matrix.
func (d *Device) Ops() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the device has crashed.
func (d *Device) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// admit charges one operation against every schedule; it requires d.mu
// and returns the error the operation must fail with, or nil.
// consumesBudget is false for Sync, matching the historical dying-disk
// model where a sync neither extends nor spends the budget.
func (d *Device) admit(consumesBudget bool) error {
	op := d.ops
	d.ops++
	if d.crashed {
		return fmt.Errorf("op %d: %w", op, ErrCrashed)
	}
	if d.crashAt >= 0 && op >= d.crashAt {
		d.crash()
		return fmt.Errorf("op %d: %w", op, ErrCrashed)
	}
	if d.failAt >= 0 && op == d.failAt {
		d.failAt = -1
		return fmt.Errorf("op %d: %w", op, ErrInjected)
	}
	if d.budget >= 0 {
		if d.budget == 0 {
			return fmt.Errorf("op %d: %w", op, ErrInjected)
		}
		if consumesBudget {
			d.budget--
		}
	}
	return nil
}

// ReadPage implements pager.Device. Reads see unsynced writes, as
// through an OS page cache.
func (d *Device) ReadPage(idx uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admit(true); err != nil {
		return err
	}
	if pend, ok := d.pending[idx]; ok {
		copy(p, pend)
		return nil
	}
	return d.inner.ReadPage(idx, p)
}

// WritePage implements pager.Device: the write lands in the pending
// overlay and reaches the durable inner device only at the next Sync.
func (d *Device) WritePage(idx uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admit(true); err != nil {
		return err
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	d.pending[idx] = cp
	return nil
}

// Sync implements pager.Device: it flushes the pending overlay to the
// inner device and syncs it, making those writes crash-durable.
func (d *Device) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.admit(false); err != nil {
		return err
	}
	for idx, p := range d.pending {
		if err := d.inner.WritePage(idx, p); err != nil {
			return err
		}
		delete(d.pending, idx)
	}
	return d.inner.Sync()
}

// Close implements pager.Device. It closes the inner device without
// flushing: close is not a durability point.
func (d *Device) Close() error { return d.inner.Close() }

// Checksummed forwards the checksum capability of the inner device, so
// a fault wrapper above a checksumming stack keeps the catalog layer's
// format detection working.
func (d *Device) Checksummed() bool {
	if c, ok := d.inner.(interface{ Checksummed() bool }); ok {
		return c.Checksummed()
	}
	return false
}

var _ pager.Device = (*Device)(nil)

// Tap is a pass-through device that lets a test act at a chosen point
// of a build: BeforeWrite runs ahead of every WritePage with that
// write's ordinal and the number of Syncs forwarded so far, on the
// goroutine doing the write. Crash tests use it to commit writes beside
// an off-lock checkpoint copy at a fixed, repeatable page write; it
// composes with Device (wrap the Device in the Tap).
type Tap struct {
	pager.Device
	BeforeWrite func(write, syncs int)

	writes, syncs int
}

// WritePage implements pager.Device.
func (t *Tap) WritePage(idx uint32, p []byte) error {
	t.BeforeWrite(t.writes, t.syncs)
	t.writes++
	return t.Device.WritePage(idx, p)
}

// Sync implements pager.Device.
func (t *Tap) Sync() error {
	t.syncs++
	return t.Device.Sync()
}
