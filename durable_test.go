package segdb

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"segdb/internal/faultdev"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// durableWorkload is the fixed NCT op sequence the durable tests drive:
// insert every grid segment, deleting every 4th shortly after it goes in.
type durableOp struct {
	del bool
	seg Segment
}

func durableOps(seed int64, cols, rows int) []durableOp {
	segs := workload.Grid(rand.New(rand.NewSource(seed)), cols, rows, 0.9, 0.2)
	var ops []durableOp
	for i, s := range segs {
		ops = append(ops, durableOp{seg: s})
		if i%4 == 3 {
			ops = append(ops, durableOp{del: true, seg: segs[i-1]})
		}
	}
	return ops
}

// applyOps returns the segment set after the first n ops.
func applyOps(ops []durableOp, n int) []Segment {
	state := make(map[uint64]Segment)
	for _, op := range ops[:n] {
		if op.del {
			delete(state, op.seg.ID)
		} else {
			state[op.seg.ID] = op.seg
		}
	}
	out := make([]Segment, 0, len(state))
	for _, s := range state {
		out = append(out, s)
	}
	return out
}

// checkLive asserts the live index answers exactly like the oracle set.
func checkLive(t *testing.T, d *DurableIndex, want []Segment) {
	t.Helper()
	if d.Index().Len() != len(want) {
		t.Fatalf("live Len = %d, want %d", d.Index().Len(), len(want))
	}
	if len(want) == 0 {
		return
	}
	for _, q := range matrixQueries(77, want) {
		got, err := CollectQuery(d.Index(), q)
		if err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
		if !sameIDs(got, FilterHits(q, want)) {
			t.Fatalf("query %v: wrong answer set", q)
		}
	}
}

// TestDurableRoundTrip drives the full lifecycle on real files: create,
// insert/delete durably, close, reopen (WAL replay), checkpoint, reopen
// again — the state must match the oracle at every step and the
// checkpoint must leave a clean, verifiable file and an empty log.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	walPath := filepath.Join(dir, "ix.wal")
	dopt := DurableOptions{Build: Options{B: 16}}

	ops := durableOps(101, 8, 8)
	want := applyOps(ops, len(ops))

	d, err := OpenDurableIndex(path, walPath, dopt)
	if err != nil {
		t.Fatal(err)
	}
	deletes := 0
	for _, op := range ops {
		if op.del {
			found, _, err := d.Delete(op.seg)
			if err != nil || !found {
				t.Fatalf("delete %d: found=%v err=%v", op.seg.ID, found, err)
			}
			deletes++
		} else if _, err := d.Insert(op.seg); err != nil {
			t.Fatalf("insert %d: %v", op.seg.ID, err)
		}
	}
	// A delete of an absent segment is a no-op and must not be logged.
	if found, _, err := d.Delete(NewSegment(999999, 0, 0, 1, 0)); err != nil || found {
		t.Fatalf("absent delete: found=%v err=%v", found, err)
	}
	if recs, _, _ := d.WALStats(); recs != int64(len(ops)) {
		t.Fatalf("WAL records = %d, want %d (%d inserts + %d deletes)", recs, len(ops), len(ops)-deletes, deletes)
	}
	checkLive(t, d, want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the checkpoint file is still empty; everything comes back
	// through WAL replay.
	d, err = OpenDurableIndex(path, walPath, dopt)
	if err != nil {
		t.Fatal(err)
	}
	checkLive(t, d, want)

	// Checkpoint: state moves into the index file, the log rotates.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if recs, _, _ := d.WALStats(); recs != 0 {
		t.Fatalf("WAL records after Compact = %d, want 0", recs)
	}
	if err := VerifyIndexFile(path); err != nil {
		t.Fatalf("checkpoint file fails verify: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDurableIndex(path, walPath, dopt)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkLive(t, d, want)

	// The configuration must have come from the file's catalog.
	if _, opt := buildOptions(d.live.ix); opt.B != 16 {
		t.Fatalf("reopened with B=%d, want 16", opt.B)
	}
}

// TestDurableRejectsSolution2: the durable wrapper needs the fully
// dynamic structure; pointing it at a Solution-2 file is a typed refusal,
// not a broken write path.
func TestDurableRejectsSolution2(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	segs := workload.Grid(rand.New(rand.NewSource(5)), 4, 4, 0.9, 0.2)
	if err := BuildIndexFile(path, Options{B: 16}, 2, segs); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurableIndex(path, filepath.Join(dir, "ix.wal"), DurableOptions{}); err == nil {
		t.Fatal("OpenDurableIndex accepted a Solution-2 file")
	}
}

// TestDurableConcurrentInserts: concurrent writers through the durable
// path all get acknowledged, the log holds one record per write in some
// serial order, and a reopen replays to exactly the full set. Run under
// -race: it exercises apply+append serialization against group commit.
func TestDurableConcurrentInserts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	walPath := filepath.Join(dir, "ix.wal")
	dopt := DurableOptions{Build: Options{B: 16}}

	segs := workload.Grid(rand.New(rand.NewSource(7)), 10, 10, 0.95, 0.2)
	d, err := OpenDurableIndex(path, walPath, dopt)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(segs); i += workers {
				if _, err := d.Insert(segs[i]); err != nil {
					t.Errorf("insert %d: %v", segs[i].ID, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if recs, _, _ := d.WALStats(); recs != int64(len(segs)) {
		t.Fatalf("WAL records = %d, want %d", recs, len(segs))
	}
	checkLive(t, d, segs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDurableIndex(path, walPath, dopt)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkLive(t, d, segs)
}

// TestDurableCrashMatrixWAL kills the WAL file at every one of its
// operations across a fixed insert/delete workload, with torn writes,
// then reboots from the durable image: the recovered state must be
// exactly the acknowledged prefix of the workload — every acked write
// present, no unacked write applied — and the checkpoint file must still
// verify clean.
func TestDurableCrashMatrixWAL(t *testing.T) {
	dir := t.TempDir()
	dopt := DurableOptions{Build: Options{B: 16}}
	ops := durableOps(201, 6, 6)

	run := func(path string, f wal.File) int {
		d, err := openDurableIndex(path, dopt, f, nil)
		if err != nil {
			return 0
		}
		defer d.Close()
		acked := 0
		for _, op := range ops {
			if op.del {
				if _, _, err := d.Delete(op.seg); err != nil {
					break
				}
			} else if _, err := d.Insert(op.seg); err != nil {
				break
			}
			acked++
		}
		return acked
	}

	// Fault-free counting run bounds the matrix.
	ctr := wal.NewFaultFile(0)
	countPath := filepath.Join(dir, "count.db")
	if got := run(countPath, ctr); got != len(ops) {
		t.Fatalf("fault-free run acked %d of %d ops", got, len(ops))
	}
	walOps := ctr.Ops()
	if walOps < 20 {
		t.Fatalf("suspiciously few WAL file ops (%d)", walOps)
	}

	for k := int64(0); k < walOps; k++ {
		path := filepath.Join(dir, "crash.db")
		// Each iteration starts from a fresh (empty) checkpoint file.
		if err := BuildIndexFile(path, dopt.Build, 1, nil); err != nil {
			t.Fatal(err)
		}
		f := wal.NewFaultFile(k)
		f.TornWrites(0.7)
		f.CrashAt(k)
		acked := run(path, f)

		// Reboot: same checkpoint file, the WAL's durable image.
		d, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(k, f.DurableImage()), nil)
		if err != nil {
			t.Fatalf("crash at WAL op %d: recovery open failed: %v", k, err)
		}
		want := applyOps(ops, acked)
		got, err := d.Index().Collect()
		if err != nil {
			t.Fatalf("crash at WAL op %d: collect: %v", k, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("crash at WAL op %d: recovered %d segments, want the %d acked (of %d ops run)",
				k, len(got), len(want), acked)
		}
		d.Close()
		if err := VerifyIndexFile(path); err != nil {
			t.Fatalf("crash at WAL op %d: checkpoint file damaged: %v", k, err)
		}
	}
}

// TestDurableCompactConcurrentWithCommits races online checkpoints
// against committing writers — the Reset/Sync interleaving the WAL-level
// gate test pins deterministically, here through the public API under
// load. Every insert is acknowledged while Compact loops concurrently;
// a power cut that drops the WAL's page cache must then lose none of
// them: a stale durability watermark surviving a rotation would let
// commits skip their fsync and vanish here. Run under -race.
func TestDurableCompactConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	dopt := DurableOptions{Build: Options{B: 16}, GroupCommitWindow: 200 * time.Microsecond}
	segs := workload.Grid(rand.New(rand.NewSource(11)), 10, 10, 0.95, 0.2)

	f := wal.NewFaultFile(5)
	d, err := openDurableIndex(path, dopt, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(segs); i += workers {
				if _, err := d.Insert(segs[i]); err != nil {
					t.Errorf("insert %d: %v", segs[i].ID, err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	compacts := 0
	for running := true; running; {
		if err := d.Compact(); err != nil {
			t.Errorf("compact %d: %v", compacts, err)
			break
		}
		compacts++
		select {
		case <-done:
			running = false
		default:
		}
	}
	<-done
	if t.Failed() {
		t.FailNow()
	}

	// Power cut: unsynced WAL bytes vanish. Everything acknowledged must
	// come back from the last checkpoint plus the durable log tail.
	f.Crash()
	d.Close()
	d2, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(5, f.DurableImage()), nil)
	if err != nil {
		t.Fatalf("recovery open after %d concurrent compacts: %v", compacts, err)
	}
	defer d2.Close()
	got, err := d2.Index().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, segs) {
		t.Fatalf("after %d compacts racing commits, recovered %d segments, want all %d acknowledged",
			compacts, len(got), len(segs))
	}
}

// TestSyncIndexPoison: a poisoned SyncIndex refuses queries and updates
// with the latched error — what DurableIndex relies on when a failed
// rollback leaves the live state unreconstructible — and the first
// latched error wins.
func TestSyncIndexPoison(t *testing.T) {
	segs := workload.Grid(rand.New(rand.NewSource(13)), 4, 4, 0.9, 0.2)
	st := NewMemStore(16, 16)
	raw, err := BuildSolution1(st, Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	ix := SynchronizedOn(raw, st)
	boom := errors.New("live state diverged")
	ix.poison(boom)
	ix.poison(errors.New("second poison must not displace the first"))

	if _, err := ix.Query(VLine(0.5), func(Segment) {}); !errors.Is(err, boom) {
		t.Fatalf("Query on poisoned index: %v, want the poison error", err)
	}
	if _, err := ix.QueryContext(context.Background(), VLine(0.5), func(Segment) {}); !errors.Is(err, boom) {
		t.Fatalf("QueryContext on poisoned index: %v, want the poison error", err)
	}
	if _, err := ix.InsertStats(NewSegment(1e6, 0, 0, 1, 0)); !errors.Is(err, boom) {
		t.Fatalf("InsertStats on poisoned index: %v, want the poison error", err)
	}
	if _, _, err := ix.DeleteStats(segs[0]); !errors.Is(err, boom) {
		t.Fatalf("DeleteStats on poisoned index: %v, want the poison error", err)
	}
	if _, err := ix.Collect(); !errors.Is(err, boom) {
		t.Fatalf("Collect on poisoned index: %v, want the poison error", err)
	}
	if err := ix.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact on poisoned index: %v, want the poison error", err)
	}
}

// TestDurableCrashMatrixCheckpoint kills Compact's shadow rebuild at
// every device operation: the old checkpoint plus the unrotated log must
// recover the complete pre-compact state, and the run past the matrix
// (healthy Compact) must too.
func TestDurableCrashMatrixCheckpoint(t *testing.T) {
	dir := t.TempDir()
	dopt := DurableOptions{Build: Options{B: 16}}
	ops := durableOps(301, 6, 6)
	want := applyOps(ops, len(ops))

	// setup opens a fresh durable index at path and applies the workload.
	setup := func(path string, f wal.File) *DurableIndex {
		t.Helper()
		d, err := openDurableIndex(path, dopt, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if op.del {
				if _, _, err := d.Delete(op.seg); err != nil {
					t.Fatal(err)
				}
			} else if _, err := d.Insert(op.seg); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	// Fault-free counting run bounds the matrix.
	countPath := filepath.Join(dir, "count.db")
	d := setup(countPath, wal.NewFaultFile(0))
	devOps := countBuildOps(t, func(w deviceWrapper) error {
		d.wrap = w
		return d.Compact()
	})
	d.Close()
	if devOps < 10 {
		t.Fatalf("suspiciously few checkpoint device ops (%d)", devOps)
	}

	for k := int64(0); k < devOps; k++ {
		path := filepath.Join(dir, "crash.db")
		walFault := wal.NewFaultFile(k)
		d := setup(path, walFault)
		var fd *faultdev.Device
		d.wrap = crashWrap(k, &fd)
		if err := d.Compact(); err == nil {
			t.Fatalf("crash at device op %d: Compact reported success", k)
		}
		d.Close()

		// Reboot: whatever the crash left at path, plus the durable WAL.
		d2, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(k, walFault.DurableImage()), nil)
		if err != nil {
			t.Fatalf("crash at device op %d: recovery open failed: %v", k, err)
		}
		got, err := d2.Index().Collect()
		if err != nil {
			t.Fatalf("crash at device op %d: collect: %v", k, err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("crash at device op %d: recovered %d segments, want %d", k, len(got), len(want))
		}
		d2.Close()
	}

	// Past the matrix: a healthy Compact, then recovery from the new
	// checkpoint with a rotated log.
	path := filepath.Join(dir, "clean.db")
	walFault := wal.NewFaultFile(1)
	dc := setup(path, walFault)
	if err := dc.Compact(); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	if err := VerifyIndexFile(path); err != nil {
		t.Fatalf("post-compact verify: %v", err)
	}
	d2, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(1, walFault.DurableImage()), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Index().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, want) {
		t.Fatalf("post-compact recovery: %d segments, want %d", len(got), len(want))
	}
}

// TestDurableCheckpointRotationCrash exercises the one crash window the
// device matrix cannot reach: the checkpoint rename committed but the
// log rotation did not, so recovery replays the full old log over the
// new checkpoint. The upsert replay must converge to the same state.
func TestDurableCheckpointRotationCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	dopt := DurableOptions{Build: Options{B: 16}}
	ops := durableOps(401, 6, 6)
	want := applyOps(ops, len(ops))

	walFault := wal.NewFaultFile(9)
	d, err := openDurableIndex(path, dopt, walFault, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.del {
			if _, _, err := d.Delete(op.seg); err != nil {
				t.Fatal(err)
			}
		} else if _, err := d.Insert(op.seg); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the WAL at its very next operation: the checkpoint build (on
	// the real file) succeeds, then log.Reset dies — new checkpoint, old
	// log, the exact rename-vs-rotation window.
	walFault.CrashAt(walFault.Ops())
	if err := d.Compact(); err == nil {
		t.Fatal("Compact succeeded despite the rotation crash")
	}
	d.Close()

	d2, err := openDurableIndex(path, dopt, wal.NewFaultFileFrom(9, walFault.DurableImage()), nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer d2.Close()
	got, err := d2.Index().Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, want) {
		t.Fatalf("full-log replay over new checkpoint diverged: %d segments, want %d", len(got), len(want))
	}
	if err := VerifyIndexFile(path); err != nil {
		t.Fatalf("new checkpoint fails verify: %v", err)
	}
}
