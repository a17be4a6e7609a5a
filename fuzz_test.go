package segdb_test

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"segdb"
	"segdb/internal/shard"
	"segdb/internal/workload"
)

// FuzzBuildQuery fuzzes the whole public pipeline: an arbitrary segment
// soup is planarized into a valid NCT set, indexed by both solutions in
// memory, and hit with an arbitrary segment/ray/line query whose answer
// must match the linear-scan oracle exactly. It is the differential test
// with fuzz-driven entropy: the fuzzer hunts for coordinate patterns
// (shared endpoints, collinear stacks, queries grazing endpoints) that
// random seeds rarely produce.
func FuzzBuildQuery(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), 5.0, 2.0, 9.0)
	f.Add(int64(2), uint8(20), uint8(1), 0.0, 0.0, 0.0)   // ray from the corner
	f.Add(int64(3), uint8(33), uint8(3), 8.0, -1.0, -1.0) // line through the middle
	f.Add(int64(4), uint8(12), uint8(2), 15.0, 3.0, 3.0)  // degenerate y-range
	f.Add(int64(5), uint8(40), uint8(0), 7.0, 7.0, 7.0)   // point query on the grid
	f.Fuzz(func(t *testing.T, seed int64, n, qsel uint8, qx, qlo, qhi float64) {
		for _, v := range []float64{qx, qlo, qhi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if n == 0 || n > 48 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		soup := make([]segdb.Segment, n)
		for i := range soup {
			// A small integer grid maximizes shared endpoints, crossings
			// and collinear overlaps — the planarizer's hard cases.
			s := segdb.NewSegment(uint64(i+1),
				float64(rng.Intn(16)), float64(rng.Intn(16)),
				float64(rng.Intn(16)), float64(rng.Intn(16)))
			if s.IsPoint() {
				s.B.X++
			}
			soup[i] = s
		}
		pieces := segdb.Planarize(soup, 1000)
		segs := make([]segdb.Segment, len(pieces))
		for i, p := range pieces {
			segs[i] = p.Seg
		}
		if err := segdb.ValidateNCT(segs); err != nil {
			t.Fatalf("Planarize emitted an invalid set: %v (soup %v)", err, soup)
		}

		ix1, err := segdb.CreateSolution1(segdb.NewMemStore(8, 16), segdb.Options{B: 8}, segs)
		if err != nil {
			t.Fatalf("sol1 build: %v", err)
		}
		ix2, err := segdb.CreateSolution2(segdb.NewMemStore(8, 16), segdb.Options{B: 8}, segs)
		if err != nil {
			t.Fatalf("sol2 build: %v", err)
		}

		lo, hi := qlo, qhi
		if lo > hi {
			lo, hi = hi, lo
		}
		var q segdb.Query
		switch qsel % 4 {
		case 0:
			q = segdb.VSeg(qx, lo, hi)
		case 1:
			q = segdb.VRayUp(qx, lo)
		case 2:
			q = segdb.VRayDown(qx, hi)
		default:
			q = segdb.VLine(qx)
		}

		want := map[uint64]bool{}
		for _, s := range segdb.FilterHits(q, segs) {
			want[s.ID] = true
		}
		for name, ix := range map[string]segdb.Index{"sol1": ix1, "sol2": ix2} {
			got, err := segdb.CollectQuery(ix, q)
			if err != nil {
				t.Fatalf("%s query %v: %v", name, q, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %v: %d hits, oracle says %d (soup %v)",
					name, q, len(got), len(want), soup)
			}
			for _, s := range got {
				if !want[s.ID] {
					t.Fatalf("%s query %v: spurious hit %d (soup %v)", name, q, s.ID, soup)
				}
			}
		}
	})
}

// FuzzShardRoute fuzzes the sharded store's routing invariant: over an
// arbitrary planarized NCT soup split into K slabs, every query — probed
// exactly on each cut, one ulp to either side of it, and at a
// fuzz-chosen x — must report each hit segment EXACTLY once against the
// linear-scan oracle. A segment with endpoints on a cut or spanning
// several cuts lives in exactly one slab index (its left endpoint's) and
// must still surface, via the boundary spanner list, for queries routed
// to the slabs it reaches; double-registration shows up here as a
// duplicate hit, a routing hole as a missing one. A live insert/delete
// of a cut-spanning segment exercises the same invariant on the update
// path.
func FuzzShardRoute(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), 5.0)
	f.Add(int64(2), uint8(30), uint8(4), 0.0)
	f.Add(int64(3), uint8(40), uint8(3), 15.0) // x at the grid's right edge
	f.Add(int64(4), uint8(25), uint8(8), 7.5)
	f.Fuzz(func(t *testing.T, seed int64, n, kSel uint8, qx float64) {
		if math.IsNaN(qx) || math.IsInf(qx, 0) {
			t.Skip()
		}
		if n == 0 || n > 48 {
			t.Skip()
		}
		k := 1 + int(kSel)%4
		rng := rand.New(rand.NewSource(seed))
		soup := make([]segdb.Segment, n)
		for i := range soup {
			s := segdb.NewSegment(uint64(i+1),
				float64(rng.Intn(16)), float64(rng.Intn(16)),
				float64(rng.Intn(16)), float64(rng.Intn(16)))
			if s.IsPoint() {
				s.B.X++
			}
			soup[i] = s
		}
		pieces := segdb.Planarize(soup, 1000)
		segs := make([]segdb.Segment, len(pieces))
		for i, p := range pieces {
			segs[i] = p.Seg
			segs[i].ID = uint64(i + 1) // planar pieces share source IDs; routing needs unique ones
		}

		st, err := shard.Create(t.TempDir(), shard.Config{
			Shards:  k,
			Durable: segdb.DurableOptions{Build: segdb.Options{B: 8}, CachePages: 32},
		}, segs)
		if errors.Is(err, shard.ErrCuts) {
			t.Skip() // fewer distinct left endpoints than slabs
		}
		if err != nil {
			t.Fatalf("Create K=%d over %d pieces: %v", k, len(segs), err)
		}
		defer st.Close()

		// A long horizontal spanning every cut (y=50 clears the 16x16
		// grid, so the set stays NCT), driven through the live update path.
		span := segdb.NewSegment(9000, -1, 50, 17, 50)
		if _, err := st.Insert(span); err != nil {
			t.Fatalf("insert spanning segment: %v", err)
		}
		segs = append(segs, span)

		check := func(q segdb.Query) {
			counts := map[uint64]int{}
			if _, err := st.Query(q, func(s segdb.Segment) { counts[s.ID]++ }); err != nil {
				t.Fatalf("K=%d query %v: %v", k, q, err)
			}
			want := segdb.FilterHits(q, segs)
			for _, s := range want {
				switch counts[s.ID] {
				case 1:
				case 0:
					t.Fatalf("K=%d query %v: segment %d missing (cuts %v)", k, q, s.ID, st.Cuts())
				default:
					t.Fatalf("K=%d query %v: segment %d reported %d times (cuts %v)",
						k, q, s.ID, counts[s.ID], st.Cuts())
				}
			}
			if len(counts) != len(want) {
				t.Fatalf("K=%d query %v: %d distinct hits, oracle says %d (cuts %v)",
					k, q, len(counts), len(want), st.Cuts())
			}
		}

		xs := []float64{qx}
		for _, c := range st.Cuts() {
			xs = append(xs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for _, x := range xs {
			check(segdb.VLine(x))
			check(segdb.VSeg(x, 0, 8))
			check(segdb.VRayUp(x, 49)) // clips to the spanner plus the grid's top
		}

		// Delete the spanner: it must vanish from every slab's answers.
		found, _, err := st.Delete(span)
		if err != nil || !found {
			t.Fatalf("delete spanning segment: found=%v err=%v", found, err)
		}
		segs = segs[:len(segs)-1]
		for _, x := range xs {
			check(segdb.VLine(x))
		}
	})
}

// FuzzProbeFile hands ProbeFile arbitrary file contents — the first thing
// every tool and the daemon do with a path from the command line. It must
// never panic or size an allocation from an unchecked header field, and
// every refusal must be one of the four typed sentinels callers match on.
func FuzzProbeFile(f *testing.F) {
	dir := f.TempDir()
	real := func(name string, build func(path string) error) []byte {
		path := filepath.Join(dir, name)
		if err := build(path); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return img
	}
	segs := workload.Grid(rand.New(rand.NewSource(9)), 4, 4, 0.9, 0.2)
	v3 := real("v3.db", func(path string) error {
		return segdb.BuildIndexFile(path, segdb.Options{B: 8}, 2, segs)
	})
	v2 := real("v2.db", func(path string) error {
		st, err := segdb.OpenFileStore(path, 8, 16)
		if err != nil {
			return err
		}
		if _, err := segdb.CreateSolution1(st, segdb.Options{B: 8}, segs); err != nil {
			return err
		}
		return st.Close()
	})
	mutate := func(img []byte, off int, b byte) []byte {
		out := append([]byte(nil), img...)
		out[off] = b
		return out
	}
	for _, img := range [][]byte{
		v3, v2,
		nil,                              // zero-length
		[]byte("SGDB"),                   // sub-header
		make([]byte, 4096),               // wrong magic
		mutate(v3, 4, 99),                // version from the future
		mutate(v3, 20, 0xFF),             // catalog payload damage under a v3 checksum
		mutate(v3, 39, 0xFF),             // page-size field claims ~4 GiB
		mutate(v2, 4, 3),                 // plain file whose version byte says checksummed
		v3[:len(v3)-1], v2[:len(v2)/2+3], // ragged tails
	} {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		path := filepath.Join(t.TempDir(), "probe.db")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		b, pageSize, err := segdb.ProbeFile(path)
		if err == nil {
			if b <= 0 || pageSize <= 0 {
				t.Fatalf("accepted a file with geometry B=%d, page size %d", b, pageSize)
			}
			return
		}
		for _, sentinel := range []error{segdb.ErrTruncated, segdb.ErrNotIndex, segdb.ErrVersion, segdb.ErrCorrupt} {
			if errors.Is(err, sentinel) {
				return
			}
		}
		t.Fatalf("untyped probe error: %v", err)
	})
}
