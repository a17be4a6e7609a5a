package pager

import (
	"fmt"
	"os"
	"sync"
)

// Device is raw page-addressed storage beneath a Store. Page indexes are
// zero-based at this layer; the Store maps its one-based PageIDs onto them.
type Device interface {
	// ReadPage fills p with the contents of the page at index idx.
	ReadPage(idx uint32, p []byte) error
	// WritePage stores p as the contents of the page at index idx,
	// growing the device if needed.
	WritePage(idx uint32, p []byte) error
	// Sync forces written pages to durable storage. Callers that persist
	// a catalog must Sync before Close, or a crash can lose the index.
	Sync() error
	// Close releases any resources held by the device.
	Close() error
}

// MemDevice is an in-memory Device. It is the default backend for tests and
// benchmarks: I/O counting happens in the Store, so a RAM backend measures
// exactly the same I/O-model cost as a disk backend, only faster. It is
// safe for concurrent use, like a real disk.
type MemDevice struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
	// snaps are the unreleased snapshots. While one shares a page's
	// buffer, WritePage replaces the buffer instead of overwriting it.
	snaps []*MemSnapshot
}

// NewMemDevice returns an empty in-memory device with the given page size.
func NewMemDevice(pageSize int) *MemDevice {
	return &MemDevice{pageSize: pageSize}
}

// ReadPage implements Device.
func (d *MemDevice) ReadPage(idx uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(idx) >= len(d.pages) || d.pages[idx] == nil {
		return fmt.Errorf("memdevice: page %d never written", idx)
	}
	copy(p, d.pages[idx])
	return nil
}

// WritePage implements Device.
func (d *MemDevice) WritePage(idx uint32, p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for int(idx) >= len(d.pages) {
		d.pages = append(d.pages, nil)
	}
	if d.pages[idx] == nil || d.shared(idx) {
		d.pages[idx] = make([]byte, d.pageSize)
	}
	copy(d.pages[idx], p)
	return nil
}

// shared reports whether an unreleased snapshot still holds the buffer
// page idx lives in. Requires d.mu.
func (d *MemDevice) shared(idx uint32) bool {
	for _, s := range d.snaps {
		if int(idx) < len(s.pages) && s.pages[idx] != nil && &s.pages[idx][0] == &d.pages[idx][0] {
			return true
		}
	}
	return false
}

// Snapshot freezes the device's current contents as a read-only Device,
// in O(1) page copies: it duplicates the page-pointer slice, not the
// pages. From then on a WritePage to a page the snapshot still shares
// installs a fresh buffer (copy-on-write, one allocation per page per
// snapshot) and the snapshot keeps the old one, so its bytes never
// change however the device is written. Closing the snapshot ends
// copy-on-write; a snapshot that is never closed pins its pages and
// keeps every first write to a page allocating.
func (d *MemDevice) Snapshot() *MemSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &MemSnapshot{dev: d, pages: append([][]byte(nil), d.pages...)}
	d.snaps = append(d.snaps, s)
	return s
}

// MemSnapshot is a frozen image of a MemDevice, see MemDevice.Snapshot.
// It serves one reader at a time; Close must not race ReadPage.
type MemSnapshot struct {
	dev   *MemDevice
	pages [][]byte // nil once closed
}

// ReadPage implements Device. It takes no lock: while the snapshot is
// open nothing writes to the buffers it holds.
func (s *MemSnapshot) ReadPage(idx uint32, p []byte) error {
	if int(idx) >= len(s.pages) || s.pages[idx] == nil {
		return fmt.Errorf("memsnapshot: page %d not in the snapshot", idx)
	}
	copy(p, s.pages[idx])
	return nil
}

// Changed lists, in ascending order, the pages s holds in a buffer old
// does not: every page written after old was taken and before s was,
// since a write to a page old shares installs a fresh buffer. A page
// rewritten with identical bytes is listed too; a page written only
// before old is not. A nil old holds nothing, so Changed(nil) lists
// every page s holds. Both snapshots must be open.
func (s *MemSnapshot) Changed(old *MemSnapshot) []uint32 {
	var out []uint32
	for i, p := range s.pages {
		if p == nil {
			continue
		}
		if old == nil || i >= len(old.pages) || old.pages[i] == nil || &old.pages[i][0] != &p[0] {
			out = append(out, uint32(i))
		}
	}
	return out
}

// WritePage implements Device; a snapshot is read-only.
func (s *MemSnapshot) WritePage(idx uint32, _ []byte) error {
	return fmt.Errorf("memsnapshot: write page %d: snapshot is read-only", idx)
}

// Sync implements Device; there is nothing to flush.
func (s *MemSnapshot) Sync() error { return nil }

// Close implements Device: it releases the snapshot, so the device
// writes in place again. Closing twice is a no-op.
func (s *MemSnapshot) Close() error {
	s.dev.mu.Lock()
	defer s.dev.mu.Unlock()
	for i, o := range s.dev.snaps {
		if o == s {
			s.dev.snaps = append(s.dev.snaps[:i], s.dev.snaps[i+1:]...)
			break
		}
	}
	s.pages = nil
	return nil
}

// Sync implements Device. RAM is as durable as a MemDevice gets, so it is
// a no-op.
func (d *MemDevice) Sync() error { return nil }

// NumPages returns the number of page slots the device has grown to —
// written pages plus any holes below them. Crash tests use it to dump a
// device's durable image to a file; never-written slots read as zeroes
// there, like holes in a sparse file.
func (d *MemDevice) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pages)
}

// Close implements Device. It drops the page storage.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = nil
	return nil
}

// FileDevice is a Device backed by a single file, with page i stored at
// byte offset i * pageSize. It gives the library a persistent backend for
// the command-line tools.
type FileDevice struct {
	f        *os.File
	pageSize int
}

// OpenFileDevice opens (creating if necessary) a file-backed device.
func OpenFileDevice(path string, pageSize int) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedevice: %w", err)
	}
	return &FileDevice{f: f, pageSize: pageSize}, nil
}

// ReadPage implements Device.
func (d *FileDevice) ReadPage(idx uint32, p []byte) error {
	_, err := d.f.ReadAt(p, int64(idx)*int64(d.pageSize))
	if err != nil {
		return fmt.Errorf("filedevice: read page %d: %w", idx, err)
	}
	return nil
}

// WritePage implements Device.
func (d *FileDevice) WritePage(idx uint32, p []byte) error {
	_, err := d.f.WriteAt(p, int64(idx)*int64(d.pageSize))
	if err != nil {
		return fmt.Errorf("filedevice: write page %d: %w", idx, err)
	}
	return nil
}

// Sync implements Device: fsync. WritePage goes through the OS page
// cache, so a crash between the last write and Sync can lose pages; the
// build path syncs after persisting the catalog.
func (d *FileDevice) Sync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("filedevice: sync: %w", err)
	}
	return nil
}

// Close implements Device. It closes the underlying file.
func (d *FileDevice) Close() error { return d.f.Close() }
