package pager

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemDeviceSnapshotConcurrentWrites: a snapshot's bytes are the
// device's bytes at Snapshot, however hard the device is written
// afterwards — including pages the device only grows later — and the
// device meanwhile serves the new bytes. Run under -race: the snapshot
// reads without the device lock, which is sound only because writers
// never touch a buffer a snapshot still shares.
func TestMemDeviceSnapshotConcurrentWrites(t *testing.T) {
	const (
		pageSize = 64
		pages    = 32
		writers  = 4
		rounds   = 200
	)
	d := NewMemDevice(pageSize)
	for i := uint32(0); i < pages; i++ {
		if err := d.WritePage(i, encV(pageSize, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	defer snap.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := uint32(w); i < pages+8; i += writers {
					if err := d.WritePage(i, encV(pageSize, uint64(2+r))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	buf := make([]byte, pageSize)
	for r := 0; r < rounds; r++ {
		for i := uint32(0); i < pages; i++ {
			if err := snap.ReadPage(i, buf); err != nil {
				t.Fatal(err)
			}
			if v := decV(buf); v != 1 {
				t.Fatalf("snapshot page %d reads version %d, want the 1 it was taken at", i, v)
			}
		}
	}
	wg.Wait()
	if err := snap.ReadPage(pages, buf); err == nil {
		t.Fatal("snapshot serves a page the device grew after it was taken")
	}
	if err := snap.WritePage(0, buf); err == nil {
		t.Fatal("snapshot accepted a write")
	}
	for i := uint32(0); i < pages+8; i++ {
		if err := d.ReadPage(i, buf); err != nil {
			t.Fatal(err)
		}
		if v := decV(buf); v != 1+rounds {
			t.Fatalf("device page %d reads version %d, want the last write's %d", i, v, 1+rounds)
		}
	}
}

// TestMemDeviceSnapshotReleaseEndsCopyOnWrite: while a snapshot is open
// the first write to a page it shares moves the page to a fresh buffer
// and later writes reuse that one; once the snapshot is closed — or two
// snapshots diffed with Changed are — the device writes in place again
// and no write allocates.
func TestMemDeviceSnapshotReleaseEndsCopyOnWrite(t *testing.T) {
	const pageSize, pages = 64, 16
	d := NewMemDevice(pageSize)
	page := encV(pageSize, 7)
	writeAll := func() {
		for i := uint32(0); i < pages; i++ {
			if err := d.WritePage(i, page); err != nil {
				t.Fatal(err)
			}
		}
	}
	buffers := func() []*byte {
		out := make([]*byte, pages)
		for i := range out {
			out[i] = &d.pages[i][0]
		}
		return out
	}
	moved := func(a, b []*byte) (n int) {
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}
	writeAll()
	if n := testing.AllocsPerRun(10, writeAll); n != 0 {
		t.Fatalf("rewriting %d pages with no snapshot allocates %v times", pages, n)
	}

	before := buffers()
	snap := d.Snapshot()
	writeAll()
	copied := buffers()
	if n := moved(before, copied); n != pages {
		t.Fatalf("first write under a snapshot moved %d of %d shared pages", n, pages)
	}
	if n := testing.AllocsPerRun(10, writeAll); n != 0 {
		t.Fatalf("second write to an already copied page allocates (%v per %d pages)", n, pages)
	}
	if n := moved(copied, buffers()); n != 0 {
		t.Fatalf("second write under the snapshot moved %d pages again", n)
	}

	snap.Close()
	snap.Close() // closing twice is a no-op
	if n := testing.AllocsPerRun(10, writeAll); n != 0 {
		t.Fatalf("rewriting %d pages after the snapshot was closed allocates %v times", pages, n)
	}
	if n := moved(copied, buffers()); n != 0 {
		t.Fatalf("a closed snapshot still moved %d pages", n)
	}
	// Pages shared with a snapshot that is then closed untouched are
	// written in place as well.
	d.Snapshot().Close()
	writeAll()
	if n := moved(copied, buffers()); n != 0 {
		t.Fatalf("an untouched, closed snapshot moved %d pages", n)
	}
	// Diffing two snapshots leaves them ordinary snapshots: closing both
	// ends copy-on-write.
	old := d.Snapshot()
	writeAll()
	cur := d.Snapshot()
	if n := len(cur.Changed(old)); n != pages {
		t.Fatalf("Changed lists %d of %d rewritten pages", n, pages)
	}
	old.Close()
	cur.Close()
	if n := testing.AllocsPerRun(10, writeAll); n != 0 {
		t.Fatalf("rewriting %d pages after two diffed snapshots were closed allocates %v times", pages, n)
	}
}

// TestMemSnapshotChanged: Changed lists exactly the pages written
// between two snapshots — rewritten in place, freed and reused, and
// freshly allocated past the older snapshot's length — and not the
// untouched ones or an allocated page that was never written.
func TestMemSnapshotChanged(t *testing.T) {
	const pageSize = 64
	dev := NewMemDevice(pageSize)
	s, err := Open(dev, pageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Write(s.Alloc(), encV(pageSize, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Free(3)
	old := dev.Snapshot()
	defer old.Close()
	if got, want := old.Changed(nil), []uint32{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("Changed(nil) = %v, want every page %v", got, want)
	}

	write := func(id PageID, v uint64) {
		t.Helper()
		if err := s.Write(id, encV(pageSize, v)); err != nil {
			t.Fatal(err)
		}
	}
	write(2, 2) // rewritten
	write(5, 2) // rewritten twice: listed once
	write(5, 3)
	if reused := s.Alloc(); reused != 3 {
		t.Fatalf("Alloc after Free(3) = %d", reused)
	} else {
		write(reused, 2) // freed and reused
	}
	write(s.Alloc(), 2) // page 9, past the old length
	s.Alloc()           // page 10, allocated but never written
	write(s.Alloc(), 2) // page 11
	cur := dev.Snapshot()
	defer cur.Close()

	// Device indexes are PageID-1.
	if got, want := cur.Changed(old), []uint32{1, 2, 4, 8, 10}; !slices.Equal(got, want) {
		t.Fatalf("Changed = %v, want %v", got, want)
	}
	if got := cur.Changed(cur); len(got) != 0 {
		t.Fatalf("a snapshot changed against itself: %v", got)
	}
}

// TestMemSnapshotChangedConcurrentWriters: with four writers running
// from before the first snapshot until after the second, Changed
// reports exactly the pages whose bytes differ between the two (every
// write stamps a version no other write uses, so written means
// different). Run under -race.
func TestMemSnapshotChangedConcurrentWriters(t *testing.T) {
	const (
		pageSize = 64
		pages    = 64
		writers  = 4
	)
	d := NewMemDevice(pageSize)
	for i := uint32(0); i < pages; i++ {
		if err := d.WritePage(i, encV(pageSize, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var (
		wg     sync.WaitGroup
		stop   = make(chan struct{})
		writes atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w + 1)
			for r := uint64(0); ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				idx := uint32(rng>>33) % (pages + 16) // some past the end
				if err := d.WritePage(idx, encV(pageSize, 2+r*writers+uint64(w))); err != nil {
					t.Error(err)
					return
				}
				writes.Add(1)
			}
		}(w)
	}
	// waitWrites returns once the writers have made n more writes.
	waitWrites := func(n int64) {
		for target := writes.Load() + n; writes.Load() < target; {
			runtime.Gosched()
		}
	}
	waitWrites(64)
	old := d.Snapshot()
	defer old.Close()
	waitWrites(256)
	cur := d.Snapshot()
	defer cur.Close()
	waitWrites(64)
	close(stop)
	wg.Wait()

	a, b := make([]byte, pageSize), make([]byte, pageSize)
	var want []uint32
	for _, i := range cur.Changed(nil) {
		if err := cur.ReadPage(i, b); err != nil {
			t.Fatal(err)
		}
		if old.ReadPage(i, a) != nil || decV(a) != decV(b) {
			want = append(want, i)
		}
	}
	got := cur.Changed(old)
	if !slices.Equal(got, want) {
		t.Fatalf("Changed = %v, want the pages whose bytes differ %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("no page was written between the snapshots; the test proves nothing")
	}
}
