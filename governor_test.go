package segdb

import (
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// fakeCompactUnit is a governor test double: WAL counters the test sets
// directly, a Compact that empties them (or fails).
type fakeCompactUnit struct {
	mu       sync.Mutex
	records  int64
	err      error
	compacts int
}

func (u *fakeCompactUnit) set(records int64) {
	u.mu.Lock()
	u.records = records
	u.mu.Unlock()
}

func (u *fakeCompactUnit) WALStats() (records, size, durable int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	size = wal.HeaderSize + u.records*wal.RecordSize
	return u.records, size, size
}

func (u *fakeCompactUnit) Compact() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.compacts++
	if u.err != nil {
		return u.err
	}
	u.records = 0
	return nil
}

func (u *fakeCompactUnit) count() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.compacts
}

// TestGovernorCompactTriggers drives one unit through the governor's
// state machine with an injected clock: threshold trigger, min-interval
// backoff, the hysteresis latch across deferrals and dips, and the 2x
// override that keeps the lag guard from starving compaction.
func TestGovernorCompactTriggers(t *testing.T) {
	u := &fakeCompactUnit{}
	deferred := false
	var deferrals int
	g := NewGovernor([]CompactUnit{u}, GovernorConfig{
		Records:     10,
		MinInterval: time.Minute,
		Defer: func() (string, bool) {
			if deferred {
				return "lag guard", true
			}
			return "", false
		},
		OnDefer: func(int, string) { deferrals++ },
	})
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }

	u.set(5)
	if n := g.Poll(); n != 0 {
		t.Fatalf("below threshold: fired %d", n)
	}
	u.set(10)
	if n := g.Poll(); n != 1 || u.count() != 1 {
		t.Fatalf("at threshold: fired %d, compacts %d", n, u.count())
	}

	// Backoff: a hot stream refilling immediately must wait out
	// MinInterval, then fire again.
	u.set(15)
	now = now.Add(30 * time.Second)
	if n := g.Poll(); n != 0 {
		t.Fatalf("inside min-interval: fired %d", n)
	}
	now = now.Add(31 * time.Second)
	if n := g.Poll(); n != 1 || u.count() != 2 {
		t.Fatalf("past min-interval: fired %d, compacts %d", n, u.count())
	}

	// Hysteresis latch: a trigger deferred by the guard survives a dip
	// below the threshold (but above Hysteresis*threshold = 5) and fires
	// once the guard lifts — without the latch the dip would lose it.
	u.set(12)
	deferred = true
	now = now.Add(2 * time.Minute)
	if n := g.Poll(); n != 0 || deferrals != 1 {
		t.Fatalf("deferred: fired %d, deferrals %d", n, deferrals)
	}
	u.set(7)
	deferred = false
	now = now.Add(2 * time.Minute)
	if n := g.Poll(); n != 1 || u.count() != 3 {
		t.Fatalf("latched trigger after deferral: fired %d, compacts %d", n, u.count())
	}

	// Below the hysteresis floor the latch clears: no fire even though a
	// trigger was latched earlier.
	u.set(12)
	deferred = true
	now = now.Add(2 * time.Minute)
	g.Poll() // latch + defer
	u.set(3) // < 5: clears
	deferred = false
	now = now.Add(2 * time.Minute)
	if n := g.Poll(); n != 0 {
		t.Fatalf("cleared latch: fired %d", n)
	}

	// 2x override: at twice the threshold the guard may no longer defer
	// — a guard delays rotation, it must not starve it.
	u.set(20)
	deferred = true
	now = now.Add(2 * time.Minute)
	if n := g.Poll(); n != 1 || u.count() != 4 {
		t.Fatalf("2x override: fired %d, compacts %d", n, u.count())
	}

	// A failed compaction keeps the latch: the bytes are still there, so
	// the next poll past the backoff retries.
	u.set(10)
	u.err = errors.New("checkpoint device died")
	deferred = false
	now = now.Add(2 * time.Minute)
	if n := g.Poll(); n != 1 {
		t.Fatalf("failing compact: fired %d", n)
	}
	u.err = nil
	now = now.Add(2 * time.Minute)
	if n := g.Poll(); n != 1 || u.count() != 6 {
		t.Fatalf("retry after failure: fired %d, compacts %d", n, u.count())
	}
}

// TestGovernorCompactStagger: only the units over threshold fire, and
// one poll fires them all regardless of the Parallel bound.
func TestGovernorCompactStagger(t *testing.T) {
	units := []*fakeCompactUnit{{}, {}, {}, {}}
	cast := make([]CompactUnit, len(units))
	for i, u := range units {
		cast[i] = u
	}
	g := NewGovernor(cast, GovernorConfig{Records: 10, MinInterval: time.Nanosecond, Parallel: 2})
	units[1].set(10)
	units[3].set(25)
	if n := g.Poll(); n != 2 {
		t.Fatalf("fired %d units, want 2", n)
	}
	for i, u := range units {
		want := 0
		if i == 1 || i == 3 {
			want = 1
		}
		if u.count() != want {
			t.Fatalf("unit %d compacted %d times, want %d", i, u.count(), want)
		}
	}
}

// TestDurableCompactSingleFlight holds one Compact inside its
// checkpoint build and fires concurrent Compact calls at it: they must
// coalesce onto the in-flight rotation — one build, one epoch bump —
// and all return once it completes. Before the single-flight guard the
// joiners would queue behind upMu and run back-to-back redundant
// checkpoints, and an admin compact racing the SIGTERM checkpoint did
// exactly that. Run under -race.
func TestDurableCompactSingleFlight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	var armed atomic.Bool
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	// The first armed checkpoint write blocks until released: the test's
	// handle on "one Compact is mid-build".
	wrap := func(dev pager.Device) pager.Device {
		return &faultdev.Tap{Device: dev, BeforeWrite: func(int, int) {
			if armed.Load() {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
		}}
	}

	f := wal.NewFaultFile(3)
	d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, f, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	segs := workload.Grid(rand.New(rand.NewSource(17)), 8, 8, 0.9, 0.2)
	for _, s := range segs {
		if _, err := d.Insert(s); err != nil {
			t.Fatal(err)
		}
	}

	epochBefore := d.epoch.Load()
	armed.Store(true)
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- d.Compact() }()
	<-entered // the leader is mid-build, holding the single-flight slot

	const joiners = 8
	started := make(chan struct{}, joiners)
	joinErr := make(chan error, joiners)
	for i := 0; i < joiners; i++ {
		go func() {
			started <- struct{}{}
			joinErr <- d.Compact()
		}()
	}
	for i := 0; i < joiners; i++ {
		<-started
	}
	// Let the joiner goroutines reach the flight check before the leader
	// finishes; a joiner arriving after the flight cleared would start a
	// fresh (legitimate) rotation and fail the epoch assertion below.
	time.Sleep(150 * time.Millisecond)
	armed.Store(false)
	close(release)

	if err := <-leaderErr; err != nil {
		t.Fatalf("leader compact: %v", err)
	}
	for i := 0; i < joiners; i++ {
		if err := <-joinErr; err != nil {
			t.Fatalf("joined compact: %v", err)
		}
	}
	if got := d.epoch.Load(); got != epochBefore+1 {
		t.Fatalf("epoch advanced %d times for %d coalescing callers, want exactly 1",
			got-epochBefore, joiners+1)
	}
	checkLive(t, d, segs)
}

// TestDurableCompactSingleFlightUnderCommits is the concurrency sweep
// behind the headline bugfix: writers committing, MULTIPLE goroutines
// calling Compact concurrently (admin + SIGTERM + governor, as racing
// callers), then a power cut. Every acknowledged write must recover —
// each one lands in exactly one surviving (checkpoint, log generation)
// home; a write replayed from a rotated-away generation or lost between
// two would show up here as a duplicate or a hole. Run under -race.
func TestDurableCompactSingleFlightUnderCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	dopt := DurableOptions{Build: Options{B: 16}, GroupCommitWindow: 200 * time.Microsecond}
	segs := workload.Grid(rand.New(rand.NewSource(23)), 10, 10, 0.95, 0.2)

	f := wal.NewFaultFile(9)
	d, err := openDurableIndex(path, dopt, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(segs); i += writers {
				if _, err := d.Insert(segs[i]); err != nil {
					t.Errorf("insert %d: %v", segs[i].ID, err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	const compactors = 3
	var cwg sync.WaitGroup
	var compacts atomic.Int64
	for c := 0; c < compactors; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if err := d.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
				compacts.Add(1)
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	<-done
	cwg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if d.epoch.Load() > uint64(compacts.Load()) {
		t.Fatalf("epoch %d exceeds %d completed compacts: rotations without a caller",
			d.epoch.Load(), compacts.Load())
	}

	// Power cut: unsynced WAL bytes vanish. Everything acknowledged must
	// come back from the last checkpoint plus the durable log tail —
	// exactly once each.
	f.Crash()
	d.Close()
	d2, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(9, f.DurableImage()), nil)
	if err != nil {
		t.Fatalf("recovery open after %d concurrent compacts: %v", compacts.Load(), err)
	}
	defer d2.Close()
	got, err := d2.Index().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, segs) {
		t.Fatalf("after %d compacts racing %d writers, recovered %d segments, want all %d acknowledged exactly once",
			compacts.Load(), writers, len(got), len(segs))
	}
}

// TestWALStatusConsistentDuringCompact polls WALStatus while a compact
// loop rotates the log under committing writers, and pins the
// invariant the statsMu pairing guarantees: within one observed epoch,
// size never decreases and durable never exceeds size. The unfixed
// WALStats read the counters in separate lock acquisitions, so a poll
// straddling a rotation could pair the new epoch's reset size with the
// old epoch — observed here as size shrinking inside an epoch. Run
// under -race.
func TestWALStatusConsistentDuringCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	segs := workload.Grid(rand.New(rand.NewSource(31)), 10, 10, 0.95, 0.2)

	f := wal.NewFaultFile(4)
	d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := d.Insert(segs[i%len(segs)]); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := d.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// Poller: the observer /statsz runs concurrently with rotations.
	last := make(map[uint64]int64)
	polls := 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		st := d.WALStatus()
		if st.Size < wal.HeaderSize {
			t.Fatalf("poll %d: size %d below header", polls, st.Size)
		}
		if st.Durable > st.Size {
			t.Fatalf("poll %d: durable %d past size %d (epoch %d)", polls, st.Durable, st.Size, st.Epoch)
		}
		if st.Records != (st.Size-wal.HeaderSize)/wal.RecordSize {
			t.Fatalf("poll %d: records %d inconsistent with size %d", polls, st.Records, st.Size)
		}
		if prev, ok := last[st.Epoch]; ok && st.Size < prev {
			t.Fatalf("poll %d: size shrank %d -> %d within epoch %d — torn rotation read",
				polls, prev, st.Size, st.Epoch)
		}
		last[st.Epoch] = st.Size
		polls++
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(last) < 2 {
		t.Fatalf("observed %d epochs; the poller never straddled a rotation", len(last))
	}
}

// TestAutoCompactDifferential runs the identical mixed insert/delete
// workload with the governor polling against it and without, and
// demands identical query answers — auto-compaction must be invisible
// to reads — while the governed run's WAL (the kill -9 replay cost)
// stays bounded by the threshold instead of growing with the workload.
func TestAutoCompactDifferential(t *testing.T) {
	ops := durableOps(909, 12, 12)
	want := applyOps(ops, len(ops))
	const threshold = 48

	run := func(t *testing.T, governed bool) (recovered []Segment, walRecords int64, fired int) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ix.db")
		dopt := DurableOptions{Build: Options{B: 16}}
		f := wal.NewFaultFile(7)
		d, err := openDurableIndex(path, dopt, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		var g *Governor
		if governed {
			g = NewGovernor([]CompactUnit{d}, GovernorConfig{
				Records:     threshold,
				MinInterval: time.Nanosecond,
			})
		}
		for i, op := range ops {
			if op.del {
				if _, _, err := d.Delete(op.seg); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			} else if _, err := d.Insert(op.seg); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if g != nil && i%16 == 15 {
				fired += g.Poll()
			}
		}
		checkLive(t, d, want)
		walRecords, _, _ = d.WALStats()

		// kill -9: reopen from the durable image and replay.
		f.Crash()
		d.Close()
		d2, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(7, f.DurableImage()), nil)
		if err != nil {
			t.Fatalf("recovery open: %v", err)
		}
		defer d2.Close()
		checkLive(t, d2, want)
		recovered, err = d2.Index().Collect()
		if err != nil {
			t.Fatal(err)
		}
		return recovered, walRecords, fired
	}

	plain, plainWAL, _ := run(t, false)
	governed, governedWAL, fired := run(t, true)
	if !sameIDs(plain, governed) {
		t.Fatalf("auto-compact changed the recovered answer set: %d vs %d segments",
			len(plain), len(governed))
	}
	if fired == 0 {
		t.Fatalf("governor never fired over %d ops with threshold %d", len(ops), threshold)
	}
	if plainWAL != int64(len(ops)) {
		t.Fatalf("ungoverned WAL holds %d records, want the full %d-op workload", plainWAL, len(ops))
	}
	// The governed log — the records a restart must replay — is bounded
	// by the threshold plus one inter-poll burst, not by the workload.
	if bound := int64(threshold + 16); governedWAL > bound {
		t.Fatalf("governed WAL holds %d records, want <= %d (threshold %d + poll stride)",
			governedWAL, bound, threshold)
	}
}
