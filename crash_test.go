package segdb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/workload"
)

// The crash matrix: kill an index build (or compact) at every device
// operation and demand that reopening the file yields the complete old
// index, the complete new index, or a typed corruption error — never
// silently wrong answers. Crashes are injected by internal/faultdev
// between the shadow file and the checksum layer, so the durable image a
// reopen sees contains exactly the writes covered by a completed Sync,
// plus torn fragments of the rest.

// matrixQueries is a fixed query mix (segments, rays, stabs, knife-edge
// endpoint queries) over segs' bounding box.
func matrixQueries(seed int64, segs []Segment) []Query {
	rng := rand.New(rand.NewSource(seed))
	box := workload.BBox(segs)
	qs := workload.RandomVS(rng, 10, box, (box.MaxY-box.MinY)/8)
	qs = append(qs, workload.RandomStabs(rng, 4, box)...)
	for i := 0; i < 4; i++ {
		s := segs[rng.Intn(len(segs))]
		qs = append(qs, VSeg(s.A.X, s.A.Y-2, s.A.Y+2))
	}
	return qs
}

// sameIDs reports whether got covers exactly the oracle's ID set.
func sameIDs(got, want []Segment) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make(map[uint64]bool, len(want))
	for _, s := range want {
		ids[s.ID] = true
	}
	for _, s := range got {
		if !ids[s.ID] {
			return false
		}
	}
	return true
}

// checkCleanIndex asserts path reopens into a complete, correct index
// over segs.
func checkCleanIndex(t *testing.T, path string, segs []Segment, queries []Query) {
	t.Helper()
	st, ix, err := OpenIndexFile(path, 0, 16)
	if err != nil {
		t.Fatalf("reopen %s: %v", path, err)
	}
	defer st.Close()
	if ix.Len() != len(segs) {
		t.Fatalf("reopen %s: Len = %d, want %d", path, ix.Len(), len(segs))
	}
	for _, q := range queries {
		got, err := CollectQuery(ix, q)
		if err != nil {
			t.Fatalf("reopen %s: query %v: %v", path, q, err)
		}
		if !sameIDs(got, FilterHits(q, segs)) {
			t.Fatalf("reopen %s: query %v: wrong answer set", path, q)
		}
	}
}

// countedWrap runs fn with an op-counting fault device interposed and
// returns how many device operations the run performed.
func countBuildOps(t *testing.T, run func(deviceWrapper) error) int64 {
	t.Helper()
	var ctr *faultdev.Device
	if err := run(func(d pager.Device) pager.Device {
		ctr = faultdev.New(d, 0)
		return ctr
	}); err != nil {
		t.Fatalf("fault-free counting run failed: %v", err)
	}
	return ctr.Ops()
}

// crashWrap returns a wrapper installing a crash at operation k with
// torn unsynced writes, seeded by k for determinism.
func crashWrap(k int64, fd **faultdev.Device) deviceWrapper {
	return func(d pager.Device) pager.Device {
		dev := faultdev.New(d, k)
		dev.TornWrites(0.5)
		dev.CrashAt(k)
		*fd = dev
		return dev
	}
}

// TestCrashMatrixBuild kills BuildIndexFile at every device operation:
// the committed file must survive untouched (clean-old), and the run
// past the last crash point must commit the new index (clean-new).
func TestCrashMatrixBuild(t *testing.T) {
	segsOld := workload.Grid(rand.New(rand.NewSource(11)), 10, 10, 0.9, 0.2)
	segsNew := workload.Grid(rand.New(rand.NewSource(12)), 12, 12, 0.85, 0.2)
	opt := Options{B: 16}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")

	if err := BuildIndexFile(path, opt, 2, segsOld); err != nil {
		t.Fatal(err)
	}
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	queriesOld := matrixQueries(21, segsOld)
	queriesNew := matrixQueries(22, segsNew)
	checkCleanIndex(t, path, segsOld, queriesOld)

	ops := countBuildOps(t, func(w deviceWrapper) error {
		return buildIndexFile(filepath.Join(dir, "count.db"), opt, 2, segsNew, w)
	})
	if ops < 10 {
		t.Fatalf("suspiciously few device ops (%d); the matrix would prove nothing", ops)
	}

	for k := int64(0); k < ops; k++ {
		if err := os.WriteFile(path, oldBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		var fd *faultdev.Device
		err := buildIndexFile(path, opt, 2, segsNew, crashWrap(k, &fd))
		if err == nil {
			t.Fatalf("crash at op %d: build reported success", k)
		}
		if !errors.Is(err, faultdev.ErrCrashed) {
			t.Fatalf("crash at op %d: error does not wrap ErrCrashed: %v", k, err)
		}
		if _, err := os.Stat(shadowPath(path)); err == nil {
			t.Fatalf("crash at op %d: shadow file left behind", k)
		}
		checkCleanIndex(t, path, segsOld, queriesOld) // clean-old, always
	}

	if err := BuildIndexFile(path, opt, 2, segsNew); err != nil {
		t.Fatal(err)
	}
	checkCleanIndex(t, path, segsNew, queriesNew) // clean-new
}

// TestCrashMatrixCompact does the same for CompactIndexFile over a
// Solution-1 file: a crash at any device operation of the shadow rebuild
// leaves the original file answering correctly.
func TestCrashMatrixCompact(t *testing.T) {
	segs := workload.Grid(rand.New(rand.NewSource(31)), 10, 10, 0.9, 0.2)
	opt := Options{B: 16}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")

	if err := BuildIndexFile(path, opt, 1, segs); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	queries := matrixQueries(41, segs)

	countPath := filepath.Join(dir, "count.db")
	if err := os.WriteFile(countPath, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	ops := countBuildOps(t, func(w deviceWrapper) error {
		return compactIndexFile(countPath, w)
	})
	if ops < 10 {
		t.Fatalf("suspiciously few device ops (%d)", ops)
	}

	for k := int64(0); k < ops; k++ {
		if err := os.WriteFile(path, committed, 0o644); err != nil {
			t.Fatal(err)
		}
		var fd *faultdev.Device
		err := compactIndexFile(path, crashWrap(k, &fd))
		if err == nil {
			t.Fatalf("crash at op %d: compact reported success", k)
		}
		if !errors.Is(err, faultdev.ErrCrashed) {
			t.Fatalf("crash at op %d: error does not wrap ErrCrashed: %v", k, err)
		}
		checkCleanIndex(t, path, segs, queries) // the old file, intact
	}

	if err := CompactIndexFile(path); err != nil {
		t.Fatal(err)
	}
	checkCleanIndex(t, path, segs, queries) // compacted, same answers
}

// dumpDevice writes a MemDevice's durable image to a file; never-written
// slots become zero pages, like holes in a sparse file.
func dumpDevice(t *testing.T, path string, mem *pager.MemDevice, physPageSize int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, physPageSize)
	for i := 0; i < mem.NumPages(); i++ {
		for j := range buf {
			buf[j] = 0
		}
		mem.ReadPage(uint32(i), buf) // error = hole: keep zeroes
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// typedOpenError reports whether err is one of the typed sentinels a
// damaged file is allowed to surface.
func typedOpenError(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrNotIndex) || errors.Is(err, ErrVersion)
}

// TestCrashMatrixTornCommit models the disk lying about fsync: the build
// crashes at operation k with aggressive write tearing, and the torn
// durable image is committed anyway. Opening that file must yield a
// typed error, and any query that does run must either match the oracle
// exactly or fail with ErrCorrupt — silent wrong answers are the one
// forbidden outcome.
func TestCrashMatrixTornCommit(t *testing.T) {
	segs := workload.Grid(rand.New(rand.NewSource(51)), 10, 10, 0.9, 0.2)
	opt := Options{B: 16}
	logical := PageSizeFor(opt.B)
	phys := pager.PhysicalPageSize(logical)
	queries := matrixQueries(52, segs)
	dir := t.TempDir()

	buildOn := func(dev pager.Device) error {
		st, err := pager.Open(pager.NewChecksumDevice(dev, logical), logical, buildCachePages)
		if err != nil {
			return err
		}
		if _, err := CreateSolution2(st, opt, segs); err != nil {
			return err
		}
		return st.Sync()
	}

	// Fault-free counting run bounds the matrix.
	ctr := faultdev.New(pager.NewMemDevice(phys), 0)
	if err := buildOn(ctr); err != nil {
		t.Fatal(err)
	}
	ops := ctr.Ops()
	if ops < 10 {
		t.Fatalf("suspiciously few device ops (%d)", ops)
	}

	for k := int64(0); k < ops; k++ {
		mem := pager.NewMemDevice(phys)
		fd := faultdev.New(mem, k)
		fd.TornWrites(0.7)
		fd.CrashAt(k)
		if err := buildOn(fd); err == nil {
			t.Fatalf("crash at op %d: build reported success", k)
		} else if !errors.Is(err, faultdev.ErrCrashed) {
			t.Fatalf("crash at op %d: %v, want ErrCrashed", k, err)
		}

		path := filepath.Join(dir, fmt.Sprintf("lied-%d.db", k))
		dumpDevice(t, path, mem, phys)
		st, ix, err := OpenIndexFile(path, 0, 0)
		if err != nil {
			if !typedOpenError(err) {
				t.Fatalf("crash at op %d: open failed with untyped error: %v", k, err)
			}
			continue // detected: the acceptable outcome
		}
		for _, q := range queries {
			got, qerr := CollectQuery(ix, q)
			if qerr != nil {
				if !errors.Is(qerr, ErrCorrupt) {
					st.Close()
					t.Fatalf("crash at op %d: query %v failed untyped: %v", k, q, qerr)
				}
				continue
			}
			if !sameIDs(got, FilterHits(q, segs)) {
				st.Close()
				t.Fatalf("crash at op %d: query %v returned silently wrong answers", k, q)
			}
		}
		st.Close()
	}
}

// TestRecoverIndexFileSweepsOrphan: an orphaned .tmp from a crashed
// build is removed by the owner's recovery pass in OpenDurableIndex, and
// the committed file is untouched. A plain OpenIndexFile, which any
// reader may run beside the owner, leaves it alone.
func TestRecoverIndexFileSweepsOrphan(t *testing.T) {
	segs := workload.Grid(rand.New(rand.NewSource(61)), 5, 5, 0.9, 0.2)
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.db")
	if err := BuildIndexFile(path, Options{B: 16}, 1, segs); err != nil {
		t.Fatal(err)
	}
	orphan := shadowPath(path)
	if err := os.WriteFile(orphan, []byte("half a build"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := OpenIndexFile(path, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("a reader's OpenIndexFile swept the shadow: %v", err)
	}
	d, err := OpenDurableIndex(path, filepath.Join(dir, "ix.wal"), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Index().Len() != len(segs) {
		t.Fatalf("Len = %d, want %d", d.Index().Len(), len(segs))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned shadow file not swept: %v", err)
	}
}
