package segdb

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// Compaction builds its checkpoint beside the writers (see compact). The
// tests here hold a compaction at a fixed page write of that build, or
// commit writes from inside it, which the old whole-build lock made
// impossible: every earlier compaction test has an empty carry.

// applyDurableOp runs one workload op through the durable write path.
func applyDurableOp(d *DurableIndex, op durableOp) error {
	if op.del {
		_, _, err := d.Delete(op.seg)
		return err
	}
	_, err := d.Insert(op.seg)
	return err
}

// uniqueIDs fails the test if segs holds an ID twice: "recovered exactly
// once" is sameIDs plus this.
func uniqueIDs(t *testing.T, tag string, segs []Segment) {
	t.Helper()
	seen := make(map[uint64]bool, len(segs))
	for _, s := range segs {
		if seen[s.ID] {
			t.Fatalf("%s: segment %d recovered twice", tag, s.ID)
		}
		seen[s.ID] = true
	}
}

// TestDurableCompactBuildsBesideWriters pauses a compaction in the
// middle of its shadow build and requires everything the old design
// blocked or broke there: writes are acknowledged, VerifyIndexFile on
// the checkpoint passes and leaves the in-flight shadow alone (it used
// to sweep it as an orphan, failing the rotation at its rename), and the
// released compaction commits a checkpoint holding the writes it
// carried. The lock-held time it reports excludes the pause.
func TestDurableCompactBuildsBesideWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.db")
	ops := durableOps(601, 8, 8)
	base := len(ops) - 12

	entered, release := make(chan struct{}), make(chan struct{})
	wrap := func(dev pager.Device) pager.Device {
		return &faultdev.Tap{Device: dev, BeforeWrite: func(write, _ int) {
			if write == 2 {
				close(entered)
				<-release
			}
		}}
	}
	f := wal.NewFaultFile(6)
	d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:base] {
		if err := applyDurableOp(d, op); err != nil {
			t.Fatal(err)
		}
	}

	d.wrap = wrap
	compacted := make(chan error, 1)
	go func() { compacted <- d.Compact() }()
	<-entered
	paused := time.Now()

	wrote := make(chan error, 1)
	go func() {
		for _, op := range ops[base:] {
			if err := applyDurableOp(d, op); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("write beside the build: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writes blocked behind a compaction that is only building")
	}
	if err := VerifyIndexFile(path); err != nil {
		t.Fatalf("verify beside the build: %v", err)
	}
	if _, err := os.Stat(shadowPath(path)); err != nil {
		t.Fatalf("verification removed the in-flight shadow: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	pause := time.Since(paused)
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("compaction after verify + writes beside it: %v", err)
	}
	if stall := d.LastCompactStall(); stall <= 0 || stall >= pause {
		t.Fatalf("LastCompactStall = %v; want > 0 and well under the %v the build was paused", stall, pause)
	}
	if records, _, _ := d.WALStats(); records != 0 {
		t.Fatalf("rotated log holds %d records; the carried writes belong to the checkpoint", records)
	}
	want := applyOps(ops, len(ops))
	checkLive(t, d, want)
	d.Close()

	if err := VerifyIndexFile(path); err != nil {
		t.Fatal(err)
	}
	checkCleanIndex(t, path, want, matrixQueries(602, want))
}

// TestDurableCompactEmptyCarryIsPlainBuild: with no writer beside it, a
// compaction writes exactly the file BuildIndexFile writes for the live
// segments in Collect order — what it wrote before the build moved off
// the lock, so checkpoints stay byte-comparable across the change.
func TestDurableCompactEmptyCarryIsPlainBuild(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, wal.NewFaultFile(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, op := range durableOps(611, 8, 8) {
		if err := applyDurableOp(d, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, err := d.Index().Collect()
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain.db")
	if err := BuildIndexFile(plain, d.opt, 1, segs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint (%d bytes) differs from a plain build of the live segments (%d bytes)", len(got), len(want))
	}
}

// TestDurableCrashMatrixCheckpointCarry is the checkpoint matrix with a
// non-empty carry. A tap on the checkpoint device commits writes from
// inside the off-lock build — more than catchupTail at a fixed page
// write of the build, so an off-lock catch-up round runs, and a few more
// from inside that round, so the publish has a tail to apply under the
// lock. The run is then killed at every checkpoint-device operation and
// at every WAL operation from the mark to the rotation. Whatever dies,
// recovery must hold exactly the acknowledged writes, each once.
func TestDurableCrashMatrixCheckpointCarry(t *testing.T) {
	dopt := DurableOptions{Build: Options{B: 16}}
	ops := durableOps(701, 5, 5)
	const first, second = catchupTail + 1, 3
	base := len(ops) - first - second

	type life struct {
		acked  int   // ops acknowledged, always a prefix of ops
		fired  int   // how many of the tap's two commits ran
		walAt  int64 // WAL operations before Compact
		walOps int64 // WAL operations in all
		dev    *faultdev.Device
		err    error // Compact's
	}
	// run applies the base ops, then compacts with the tap committing
	// beside the build. devCrash < 0 and walCrash < 0 mean healthy;
	// walCrash counts from the start of Compact.
	run := func(path string, f *wal.FaultFile, devCrash, walCrash int64) life {
		t.Helper()
		d, err := openDurableIndex(path, dopt, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var l life
		for _, op := range ops[:base] {
			if err := applyDurableOp(d, op); err != nil {
				t.Fatal(err)
			}
		}
		l.acked = base
		failed := false
		commit := func(n int) {
			l.fired++
			for i := 0; i < n && !failed; i++ {
				if applyDurableOp(d, ops[l.acked]) != nil {
					failed = true
					return
				}
				l.acked++
			}
		}
		d.wrap = func(dev pager.Device) pager.Device {
			l.dev = faultdev.New(dev, devCrash)
			if devCrash >= 0 {
				l.dev.TornWrites(0.5)
				l.dev.CrashAt(devCrash)
			}
			return &faultdev.Tap{Device: l.dev, BeforeWrite: func(write, syncs int) {
				switch {
				case l.fired == 0 && write == 3:
					commit(first)
				case l.fired == 1 && syncs > 0 && !failed:
					// The first page write after the build's fsync: the
					// off-lock round the first commit forced. (Had that
					// commit failed short, this write could be the
					// publish's, under the lock Insert needs.)
					commit(second)
				}
			}}
		}
		l.walAt = f.Ops()
		if walCrash >= 0 {
			f.TornWrites(0.7)
			f.CrashAt(l.walAt + walCrash)
		}
		l.err = d.Compact()
		l.walOps = f.Ops()
		return l
	}
	recovered := func(tag, path string, f *wal.FaultFile, l life) {
		t.Helper()
		if _, err := os.Stat(shadowPath(path)); err == nil && l.err != nil {
			t.Fatalf("%s: failed compaction left its shadow behind", tag)
		}
		if err := VerifyIndexFile(path); err != nil {
			t.Fatalf("%s: checkpoint damaged: %v", tag, err)
		}
		d, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(1, f.DurableImage()), nil)
		if err != nil {
			t.Fatalf("%s: recovery open: %v", tag, err)
		}
		defer d.Close()
		got, err := d.Index().Collect()
		if err != nil {
			t.Fatalf("%s: collect: %v", tag, err)
		}
		uniqueIDs(t, tag, got)
		if want := applyOps(ops, l.acked); !sameIDs(got, want) {
			t.Fatalf("%s: recovered %d segments, want the %d of %d acknowledged ops", tag, len(got), len(want), l.acked)
		}
	}

	// The uncrashed twin bounds both matrices and is what a run that
	// loses nothing must equal.
	twinPath := filepath.Join(t.TempDir(), "ix.db")
	twinWAL := wal.NewFaultFile(0)
	twin := run(twinPath, twinWAL, -1, -1)
	if twin.err != nil {
		t.Fatal(twin.err)
	}
	if twin.fired != 2 || twin.acked != len(ops) {
		t.Fatalf("twin: %d tap commits, %d of %d ops acknowledged; the matrix would carry nothing", twin.fired, twin.acked, len(ops))
	}
	recovered("twin", twinPath, twinWAL, twin)
	devOps, walOps := twin.dev.Ops(), twin.walOps-twin.walAt
	t.Logf("killing at each of %d checkpoint-device and %d WAL operations", devOps, walOps)
	if devOps < 10 || walOps < 2*(first+second) {
		t.Fatalf("suspiciously few operations to kill (device %d, WAL %d)", devOps, walOps)
	}

	for k := int64(0); k < devOps; k++ {
		path := filepath.Join(t.TempDir(), "ix.db")
		f := wal.NewFaultFile(k)
		l := run(path, f, k, -1)
		if !errors.Is(l.err, faultdev.ErrCrashed) {
			t.Fatalf("crash at device op %d: Compact returned %v, want ErrCrashed", k, l.err)
		}
		recovered("crash at device op", path, f, l)
	}
	for k := int64(0); k < walOps; k++ {
		path := filepath.Join(t.TempDir(), "ix.db")
		f := wal.NewFaultFile(k)
		l := run(path, f, -1, k)
		if l.err == nil {
			t.Fatalf("crash at WAL op %d of the compaction: Compact reported success", k)
		}
		recovered("crash at WAL op", path, f, l)
	}
}

// TestDurableCompactOutrunByWriters: writers that refill the carry past
// catchupTail in every off-lock round must not starve the rotation.
// After maxCatchupRounds the publish takes what the last round left.
func TestDurableCompactOutrunByWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.db")
	segs := workload.Grid(rand.New(rand.NewSource(621)), 24, 24, 0.9, 0.2)
	f := wal.NewFaultFile(2)
	d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	next, rounds, lastSync := 0, 0, 0
	burst := func() {
		for i := 0; i <= catchupTail; i++ {
			if _, err := d.Insert(segs[next]); err != nil {
				t.Errorf("insert beside the build: %v", err)
			}
			next++
		}
	}
	d.wrap = func(dev pager.Device) pager.Device {
		return &faultdev.Tap{Device: dev, BeforeWrite: func(write, syncs int) {
			// Once in the build, then once per catch-up round (a round
			// ends in a fsync) for as long as rounds stay off-lock.
			if (write == 0 || syncs > lastSync) && rounds <= maxCatchupRounds {
				lastSync = syncs
				rounds++
				burst()
			}
		}}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if rounds != maxCatchupRounds+1 {
		t.Fatalf("tap refilled the carry %d times, want the build + %d rounds", rounds, maxCatchupRounds)
	}
	if records, _, _ := d.WALStats(); records != 0 {
		t.Fatalf("rotated log holds %d records", records)
	}
	checkLive(t, d, segs[:next])
	checkCleanIndex(t, path, segs[:next], matrixQueries(622, segs[:next]))
}
