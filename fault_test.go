package segdb_test

import (
	"errors"
	"math/rand"
	"testing"

	"segdb/internal/faultdev"
	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
	"segdb/internal/workload"
)

// The dying-disk model lives in internal/faultdev now: one deterministic
// fault device serves the structure, catalog, sync and server suites, plus
// the crash-matrix tests of the shadow-file commit protocol.

func faultyStore(t *testing.T, pageSize int, budget int64) (*pager.Store, *faultdev.Device) {
	t.Helper()
	dev := faultdev.New(pager.NewMemDevice(pageSize), 1)
	dev.SetBudget(budget)
	st, err := pager.Open(dev, pageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st, dev
}

// TestBuildSurfacesDeviceErrors drives both builders into a dying disk at
// many different failure points: every outcome must be an error wrapping
// the injected fault, never a panic or a silent success.
func TestBuildSurfacesDeviceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	segs := workload.Grid(rng, 10, 10, 0.9, 0.2)
	pageSize := 64 + 48*16
	// A bulk build of ~190 segments needs at least ~⌈N/B⌉ page writes, so
	// budgets below that must fail; larger budgets may legitimately
	// succeed, but any failure must wrap the injected fault.
	mustFail := int64(len(segs)/16 - 1)
	for _, budget := range []int64{0, 1, 3, mustFail, 30, 100, 300} {
		st, _ := faultyStore(t, pageSize, budget)
		if _, err := sol1.Build(st, sol1.Config{B: 16}, segs); err != nil {
			if !errors.Is(err, faultdev.ErrInjected) {
				t.Fatalf("sol1 budget %d: error does not wrap the fault: %v", budget, err)
			}
		} else if budget <= mustFail {
			t.Fatalf("sol1 build with budget %d succeeded", budget)
		}

		st2, _ := faultyStore(t, pageSize, budget)
		if _, err := sol2.Build(st2, sol2.Config{B: 16}, segs); err != nil {
			if !errors.Is(err, faultdev.ErrInjected) {
				t.Fatalf("sol2 budget %d: error does not wrap the fault: %v", budget, err)
			}
		} else if budget <= mustFail {
			t.Fatalf("sol2 build with budget %d succeeded", budget)
		}
	}
}

// TestQuerySurfacesDeviceErrors builds successfully, then kills the disk
// and checks queries fail cleanly.
func TestQuerySurfacesDeviceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	segs := workload.Grid(rng, 10, 10, 0.9, 0.2)
	pageSize := 64 + 48*16

	st, dev := faultyStore(t, pageSize, -1)
	ix, err := sol2.Build(st, sol2.Config{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetBudget(0) // disk dies; the zero-size pool forces real reads
	if _, err := ix.Query(geom.VLine(5), func(geom.Segment) {}); !errors.Is(err, faultdev.ErrInjected) {
		t.Fatalf("query on dead disk: %v", err)
	}

	st1, dev1 := faultyStore(t, pageSize, -1)
	ix1, err := sol1.Build(st1, sol1.Config{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	dev1.SetBudget(0)
	if _, err := ix1.Query(geom.VLine(5), func(geom.Segment) {}); !errors.Is(err, faultdev.ErrInjected) {
		t.Fatalf("sol1 query on dead disk: %v", err)
	}
}

// TestInsertSurfacesDeviceErrors kills the disk mid-insert-stream.
func TestInsertSurfacesDeviceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	segs := workload.Levels(rng, 300, 200, 1.3)
	pageSize := 64 + 48*16

	st, dev := faultyStore(t, pageSize, -1)
	ix, err := sol1.Build(st, sol1.Config{B: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range segs {
		if i == 150 {
			dev.SetBudget(5)
		}
		if err := ix.Insert(s); err != nil {
			if !errors.Is(err, faultdev.ErrInjected) {
				t.Fatalf("insert error does not wrap the fault: %v", err)
			}
			return // failed cleanly
		}
	}
	t.Fatal("inserts kept succeeding on a dead disk")
}

// TestQuerySurfacesCrash: after a crash (as opposed to a dying disk),
// in-flight structures see ErrCrashed, again cleanly.
func TestQuerySurfacesCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	segs := workload.Grid(rng, 8, 8, 0.9, 0.2)
	pageSize := 64 + 48*16

	st, dev := faultyStore(t, pageSize, -1)
	ix, err := sol2.Build(st, sol2.Config{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	if _, err := ix.Query(geom.VLine(3), func(geom.Segment) {}); !errors.Is(err, faultdev.ErrCrashed) {
		t.Fatalf("query on crashed device: %v, want ErrCrashed", err)
	}
}
