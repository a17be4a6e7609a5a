package pager

import (
	"sync"
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
// and later writes reuse that one; once the snapshot is closed the
// device writes in place again and no write allocates.
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
}
