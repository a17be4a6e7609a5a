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

// Compaction copies the live pages into its checkpoint beside the
// writers (see compact). The tests here hold a compaction at a fixed
// page write of that copy, or commit writes from inside it, so the
// publish has changed pages to write under the lock.

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
// middle of its page copy and requires: writes are acknowledged;
// OpenIndexFile and VerifyIndexFile on the checkpoint succeed and leave
// the in-flight shadow alone (a reader that swept it as an orphan would
// fail the rotation at its rename); and the released compaction commits
// a checkpoint holding the writes made during the copy. The lock-held
// time it reports excludes the pause.
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
			t.Fatalf("write beside the copy: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writes blocked behind a compaction that is only copying")
	}
	st, _, err := OpenIndexFile(path, 0, 0)
	if err != nil {
		t.Fatalf("open beside the copy: %v", err)
	}
	st.Close()
	if err := VerifyIndexFile(path); err != nil {
		t.Fatalf("verify beside the copy: %v", err)
	}
	if _, err := os.Stat(shadowPath(path)); err != nil {
		t.Fatalf("a reader removed the in-flight shadow: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	pause := time.Since(paused)
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("compaction after open + verify + writes beside it: %v", err)
	}
	if stall := d.LastCompactStall(); stall <= 0 || stall >= pause {
		t.Fatalf("LastCompactStall = %v; want > 0 and well under the %v the copy was paused", stall, pause)
	}
	if records, _, _ := d.WALStats(); records != 0 {
		t.Fatalf("rotated log holds %d records; the writes made during the copy belong to the checkpoint", records)
	}
	want := applyOps(ops, len(ops))
	checkLive(t, d, want)
	d.Close()

	if err := VerifyIndexFile(path); err != nil {
		t.Fatal(err)
	}
	checkCleanIndex(t, path, want, matrixQueries(602, want))
}

// TestDurableCompactCheckpointIsLivePages: at the rename the checkpoint
// is the live store's pages — every page past the catalog reads, through
// the checksum layer, exactly as the live page did at publish, and the
// catalog records the live root, length and allocator high-water mark —
// whether or not writes committed while the pages were being copied. The
// file verifies, and it reopens into the index the live one and a
// FilterHits model agree on.
func TestDurableCompactCheckpointIsLivePages(t *testing.T) {
	for _, tc := range []struct {
		name   string
		during int // ops committed from inside the copy
	}{{"quiet", 0}, {"writers", 12}} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix.db")
			ops := durableOps(611, 8, 8)
			base := len(ops) - tc.during
			f := wal.NewFaultFile(1)
			d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for _, op := range ops[:base] {
				if err := applyDurableOp(d, op); err != nil {
					t.Fatal(err)
				}
			}
			published := 0
			d.wrap = func(dev pager.Device) pager.Device {
				return &faultdev.Tap{Device: dev, BeforeWrite: func(write, syncs int) {
					if syncs > 0 {
						published++
					}
					if write == 2 {
						for _, op := range ops[base:] {
							if err := applyDurableOp(d, op); err != nil {
								t.Errorf("write during the copy: %v", err)
							}
						}
					}
				}}
			}
			if err := d.Compact(); err != nil {
				t.Fatal(err)
			}
			// The publish writes the catalog, plus the pages the writes
			// during the copy changed.
			if tc.during == 0 && published != 1 || tc.during > 0 && published < 2 {
				t.Fatalf("publish wrote %d pages with %d ops committed during the copy", published, tc.during)
			}

			ps := d.mem.PageSize()
			fdev, err := pager.OpenFileDevice(path, pager.PhysicalPageSize(ps))
			if err != nil {
				t.Fatal(err)
			}
			ckpt := pager.NewChecksumDevice(fdev, ps)
			live, got := make([]byte, ps), make([]byte, ps)
			n := d.memdev.NumPages()
			for i := uint32(1); i < uint32(n); i++ {
				if d.memdev.ReadPage(i, live) != nil {
					continue // allocated, never written
				}
				if err := ckpt.ReadPage(i, got); err != nil {
					t.Fatalf("checkpoint page %d: %v", i+1, err)
				}
				if !bytes.Equal(got, live) {
					t.Fatalf("checkpoint page %d differs from the live page", i+1)
				}
			}
			ckpt.Close()
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(n*pager.PhysicalPageSize(ps)) {
				t.Fatalf("checkpoint is %v bytes (%v), want the live store's %d pages", fi.Size(), err, n)
			}

			st, ix, err := OpenIndexFile(path, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, have := d.live.ix.(solution1), ix.(solution1)
			if have.Root() != want.Root() || have.Len() != want.Len() || st.NextPage() != d.mem.NextPage() {
				t.Fatalf("catalog records root %d, len %d, next page %d; live has %d, %d, %d",
					have.Root(), have.Len(), st.NextPage(), want.Root(), want.Len(), d.mem.NextPage())
			}
			st.Close()
			if err := VerifyIndexFile(path); err != nil {
				t.Fatal(err)
			}

			model := applyOps(ops, len(ops))
			checkLive(t, d, model)
			checkCleanIndex(t, path, model, matrixQueries(612, model))
			re, err := openDurableIndex(path, DurableOptions{}, wal.NewFaultFileFrom(2, f.DurableImage()), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			checkLive(t, re, model)
		})
	}
}

// TestDurableCrashMatrixCheckpointCarry is the checkpoint matrix with
// writers beside the copy. A tap on the checkpoint device commits writes
// from inside the off-lock page copy, at a fixed page write, so the
// publish has changed pages to write under the lock. The run is then
// killed at every checkpoint-device operation and at every WAL
// operation from the mark to the rotation. Whatever dies, recovery must
// hold exactly the acknowledged writes, each once.
func TestDurableCrashMatrixCheckpointCarry(t *testing.T) {
	dopt := DurableOptions{Build: Options{B: 16}}
	ops := durableOps(701, 5, 5)
	const during = 20
	base := len(ops) - during

	type life struct {
		acked  int   // ops acknowledged, always a prefix of ops
		fired  int   // how many times the tap committed
		delta  int   // page writes of the publish
		walAt  int64 // WAL operations before Compact
		walOps int64 // WAL operations in all
		dev    *faultdev.Device
		err    error // Compact's
	}
	// run applies the base ops, then compacts with the tap committing
	// beside the copy. devCrash < 0 and walCrash < 0 mean healthy;
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
				if syncs > 0 {
					l.delta++
				} else if write == 3 {
					commit(during)
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
	if twin.fired != 1 || twin.acked != len(ops) || twin.delta < 2 {
		t.Fatalf("twin: %d tap commits, %d of %d ops acknowledged, %d pages published; the publish would write no changed page",
			twin.fired, twin.acked, len(ops), twin.delta)
	}
	recovered("twin", twinPath, twinWAL, twin)
	devOps, walOps := twin.dev.Ops(), twin.walOps-twin.walAt
	t.Logf("killing at each of %d checkpoint-device and %d WAL operations", devOps, walOps)
	if devOps < 10 || walOps < 2*during {
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

// TestDurableCompactOutrunByWriters: a writer that commits ahead of
// every page the copy writes still gets its rotation. Nothing is
// replayed into the checkpoint, so there is no round for the writer to
// outrun: the publish writes the pages it changed, the log rotates
// empty, and the checkpoint equals the live state.
func TestDurableCompactOutrunByWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix.db")
	segs := workload.Grid(rand.New(rand.NewSource(621)), 24, 24, 0.9, 0.2)
	f := wal.NewFaultFile(2)
	d, err := openDurableIndex(path, DurableOptions{Build: Options{B: 16}}, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	next := 0
	for ; next < len(segs)/2; next++ {
		if _, err := d.Insert(segs[next]); err != nil {
			t.Fatal(err)
		}
	}
	copied := 0
	d.wrap = func(dev pager.Device) pager.Device {
		return &faultdev.Tap{Device: dev, BeforeWrite: func(_, syncs int) {
			if syncs == 0 && next < len(segs) {
				copied++
				if _, err := d.Insert(segs[next]); err != nil {
					t.Errorf("insert beside the copy: %v", err)
				}
				next++
			}
		}}
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if copied < 10 {
		t.Fatalf("the writer committed beside only %d page writes", copied)
	}
	if records, _, _ := d.WALStats(); records != 0 {
		t.Fatalf("rotated log holds %d records", records)
	}
	checkLive(t, d, segs[:next])
	checkCleanIndex(t, path, segs[:next], matrixQueries(622, segs[:next]))
}
