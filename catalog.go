package segdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"segdb/internal/pager"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
)

// The catalog makes a file-backed index reopenable: page 1 of the store
// records the index kind, configuration, root page and allocator
// high-water mark. Create* must therefore run on a fresh store (so the
// catalog lands on page 1); Save refreshes the catalog after updates;
// Open reattaches without rebuilding.

const (
	catalogPage  = pager.PageID(1)
	catalogMagic = 0x42444753 // "SGDB"
	// Version 2 appends the store page size (offset 36), so reopening
	// with a mismatched -b is a clear error instead of silent misreads.
	// Version 3 keeps the identical catalog layout but marks a
	// checksummed file: every page (this one included) carries a CRC32C
	// trailer verified on read (see pager.ChecksumDevice), so the
	// physical page size is the logical size plus the trailer. Save
	// stamps the version matching the store's device, and Open refuses a
	// store whose device disagrees with the file's version.
	catalogVersionPlain    = 2
	catalogVersionChecksum = 3

	kindSolution1 = 1
	kindSolution2 = 2

	catalogPageSizeOff = 36 // byte offset of the page-size field
)

// Sentinel errors of the file-probing and verification paths. They are
// wrapped with context (path, page, sizes); test with errors.Is.
var (
	// ErrNotIndex reports a file whose catalog magic is wrong: not a
	// segdb index at all.
	ErrNotIndex = errors.New("segdb: not a segdb index file")
	// ErrTruncated reports a file too short for what its header (or the
	// absence of one) promises: zero-length, sub-header, or cut mid-page.
	ErrTruncated = errors.New("segdb: index file truncated")
	// ErrVersion reports a catalog version this build does not support.
	ErrVersion = errors.New("segdb: unsupported catalog version")
	// ErrCorrupt reports a page whose checksum does not match its
	// contents (catalog v3). It is pager.ErrCorrupt, re-exported so
	// callers need only this package.
	ErrCorrupt = pager.ErrCorrupt
)

// CreateSolution1 builds a Solution-1 index on a fresh store and writes
// the catalog so it can be reopened with Open. The store must be empty.
func CreateSolution1(st *Store, opt Options, segs []Segment) (Index, error) {
	return create(st, opt, segs, BuildSolution1)
}

// CreateSolution2 builds a Solution-2 index on a fresh store and writes
// the catalog so it can be reopened with Open. The store must be empty.
func CreateSolution2(st *Store, opt Options, segs []Segment) (Index, error) {
	return create(st, opt, segs, BuildSolution2)
}

// create reserves the catalog page of a fresh store, builds behind it and
// saves the catalog.
func create(st *Store, opt Options, segs []Segment, build func(*Store, Options, []Segment) (Index, error)) (Index, error) {
	if err := reserveCatalog(st); err != nil {
		return nil, err
	}
	ix, err := build(st, opt, segs)
	if err != nil {
		return nil, err
	}
	return ix, Save(st, ix)
}

func reserveCatalog(st *Store) error {
	if st.PagesInUse() != 0 {
		return fmt.Errorf("segdb: Create* needs a fresh store (found %d pages in use)", st.PagesInUse())
	}
	if id := st.Alloc(); id != catalogPage {
		return fmt.Errorf("segdb: catalog landed on page %d, want %d", id, catalogPage)
	}
	// Zero the page so Open on a half-created store fails cleanly.
	return st.Write(catalogPage, make([]byte, st.PageSize()))
}

// Save persists the index identity into the store's catalog page. Call it
// after updates and before closing the store; Open replays it. The index
// must have been built with CreateSolution1 or CreateSolution2.
func Save(st *Store, ix Index) error {
	page := make([]byte, st.PageSize())
	c := pager.NewBuf(page)
	c.PutU32(catalogMagic)
	version := uint8(catalogVersionPlain)
	if st.Checksummed() {
		version = catalogVersionChecksum
	}
	c.PutU8(version)
	switch v := ix.(type) {
	case solution1:
		cfg := v.Config()
		c.PutU8(kindSolution1)
		c.PutU16(0)
		c.PutU32(uint32(cfg.B))
		plain := uint8(0)
		if cfg.Plain {
			plain = 1
		}
		c.PutU8(plain)
		c.Skip(3)
		c.PutF64(cfg.Alpha)
		c.PutPage(v.Root())
		c.PutU32(uint32(v.Len()))
	case solution2:
		cfg := v.Config()
		c.PutU8(kindSolution2)
		c.PutU16(0)
		c.PutU32(uint32(cfg.B))
		c.PutU8(0)
		c.Skip(3)
		c.PutF64(float64(cfg.D))
		c.PutPage(v.Root())
		c.PutU32(uint32(v.Len()))
	default:
		return fmt.Errorf("segdb: cannot save index of type %T (baselines have no catalog)", ix)
	}
	c.PutPage(st.NextPage())
	c.PutU32(uint32(st.PageSize()))
	return st.Write(catalogPage, page)
}

// Open reattaches the index recorded in the store's catalog page, written
// by CreateSolution1/CreateSolution2 + Save. It restores the allocator
// high-water mark so later inserts do not collide with existing pages.
func Open(st *Store) (Index, error) {
	page, err := st.Read(catalogPage)
	if err != nil {
		return nil, fmt.Errorf("segdb: no catalog: %w", err)
	}
	c := pager.NewBuf(page)
	if c.U32() != catalogMagic {
		return nil, fmt.Errorf("segdb: page 1 is not a segdb catalog")
	}
	switch v := c.U8(); {
	case v != catalogVersionPlain && v != catalogVersionChecksum:
		return nil, fmt.Errorf("segdb: catalog version %d: %w", v, ErrVersion)
	case v == catalogVersionChecksum && !st.Checksummed():
		// A v3 file read through a plain device would misplace every page
		// (the physical pages are trailer-widened) — refuse early.
		return nil, fmt.Errorf("segdb: catalog is v%d (checksummed) but the store's device does not verify checksums; open the file with OpenIndexFile", v)
	case v == catalogVersionPlain && st.Checksummed():
		return nil, fmt.Errorf("segdb: catalog is v%d (plain) but the store's device expects checksummed pages; open the file with OpenIndexFile", v)
	}
	kind := c.U8()
	c.Skip(2)
	b := int(c.U32())
	// The store's page size is chosen by the caller (the -b flag of the
	// tools); if it disagrees with the size the catalog was written under,
	// every node read would silently slice the wrong byte ranges. The
	// magic still matches in that case (it sits at offset 0 of the file),
	// so this is the only place the mismatch is detectable.
	if ps := int(pager.NewBuf(page).Seek(catalogPageSizeOff).U32()); ps != st.PageSize() {
		return nil, fmt.Errorf(
			"segdb: catalog written with page size %d (block capacity B=%d) but the store was opened with page size %d; reopen with the build-time -b, or probe it with OpenIndexFile(path, 0, ...)",
			ps, b, st.PageSize())
	}
	flag := c.U8()
	c.Skip(3)
	param := c.F64()
	root := c.Page()
	length := int(c.U32())
	next := c.Page()

	st.Reserve(next)
	switch kind {
	case kindSolution1:
		ix, err := sol1.Attach(st, sol1.Config{B: b, Plain: flag == 1, Alpha: param}, root, length)
		if err != nil {
			return nil, err
		}
		return solution1{ix}, nil
	case kindSolution2:
		ix, err := sol2.Attach(st, sol2.Config{B: b, D: int(param)}, root, length)
		if err != nil {
			return nil, err
		}
		return solution2{ix}, nil
	default:
		return nil, fmt.Errorf("segdb: catalog has unknown index kind %d", kind)
	}
}

// probeFile reads the catalog header straight off the file, classifying
// every failure with a typed sentinel: ErrTruncated for zero-length or
// sub-header files, ErrNotIndex for a wrong magic, ErrVersion for an
// unknown version, and ErrCorrupt when a v3 catalog page fails its
// checksum.
func probeFile(path string) (b, pageSize, version int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("segdb: probe: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: %w", path, err)
	}
	if fi.Size() == 0 {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: zero-length file: %w", path, ErrTruncated)
	}
	var hdr [catalogPageSizeOff + 4]byte
	if fi.Size() < int64(len(hdr)) {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: %d bytes is shorter than the %d-byte catalog header: %w",
			path, fi.Size(), len(hdr), ErrTruncated)
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: catalog header unreadable: %w", path, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != catalogMagic {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: bad catalog magic: %w", path, ErrNotIndex)
	}
	version = int(hdr[4])
	if version != catalogVersionPlain && version != catalogVersionChecksum {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: catalog version %d: %w", path, version, ErrVersion)
	}
	b = int(binary.LittleEndian.Uint32(hdr[8:12]))
	pageSize = int(binary.LittleEndian.Uint32(hdr[catalogPageSizeOff:]))
	if b <= 0 || pageSize <= 0 {
		return 0, 0, 0, fmt.Errorf("segdb: probe %s: catalog records invalid geometry (B=%d, page size %d): %w",
			path, b, pageSize, ErrCorrupt)
	}
	if version == catalogVersionPlain {
		// A plain store is always a whole number of pages; a ragged size
		// means a truncated write — or a checksummed file whose version
		// byte rotted to 2, since v3's 8-byte trailers break alignment.
		if fi.Size()%int64(pageSize) != 0 {
			return 0, 0, 0, fmt.Errorf("segdb: probe %s: size %d is not a multiple of the %d-byte page: %w",
				path, fi.Size(), pageSize, ErrTruncated)
		}
	}
	if version == catalogVersionChecksum {
		// The whole catalog page carries a checksum trailer: verify it so
		// a torn or bit-rotten catalog is a typed ErrCorrupt here instead
		// of a decoding failure later.
		// The size check comes first: pageSize is an unverified header
		// field, and must not size an allocation the file cannot back.
		physSize := pager.PhysicalPageSize(pageSize)
		if fi.Size() < int64(physSize) {
			return 0, 0, 0, fmt.Errorf("segdb: probe %s: file shorter than one %d-byte page: %w",
				path, physSize, ErrTruncated)
		}
		phys := make([]byte, physSize)
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(physSize)), phys); err != nil {
			return 0, 0, 0, fmt.Errorf("segdb: probe %s: catalog page unreadable: %w", path, err)
		}
		if err := pager.VerifyPage(phys); err != nil {
			return 0, 0, 0, fmt.Errorf("segdb: probe %s: catalog page: %w", path, err)
		}
	}
	return b, pageSize, version, nil
}

// ProbeFile inspects a store file's catalog header without opening a
// Store and returns the block capacity and page size it was built with.
// The catalog lives on page 1 at byte offset 0 with both values at fixed
// offsets, so the probe needs no page-size guess — it is how tools
// discover the right configuration for an existing file. Failures wrap
// the sentinels ErrTruncated, ErrNotIndex, ErrVersion and ErrCorrupt.
func ProbeFile(path string) (b, pageSize int, err error) {
	b, pageSize, _, err = probeFile(path)
	return b, pageSize, err
}

// ProbeFileVersion is ProbeFile plus the catalog format version
// (2 = plain pages, 3 = checksummed pages). Tools use it to decide
// whether a file still needs the v2 -> v3 upgrade via CompactIndexFile.
func ProbeFileVersion(path string) (b, pageSize, version int, err error) {
	return probeFile(path)
}

// openProbedStore opens the store for a probed file with the device
// stack its catalog version requires: a plain file device for v2, a
// checksum-verifying one for v3.
func openProbedStore(path string, pageSize, version, cachePages int) (*Store, error) {
	if version == catalogVersionChecksum {
		dev, err := pager.OpenFileDevice(path, pager.PhysicalPageSize(pageSize))
		if err != nil {
			return nil, err
		}
		return pager.Open(pager.NewChecksumDevice(dev, pageSize), pageSize, cachePages)
	}
	dev, err := pager.OpenFileDevice(path, pageSize)
	if err != nil {
		return nil, err
	}
	return pager.Open(dev, pageSize, cachePages)
}

// OpenIndexFile opens a file-backed store and reattaches the index its
// catalog records, returning both so callers keep the store for stats,
// Sync and Close. B = 0 probes the file for the build-time geometry —
// the robust default, since it recovers the exact page size even for
// indexes built with a derived block capacity; a non-zero B must match
// the build-time capacity. The file's catalog version selects the device
// stack: v3 files read through checksum verification, v2 files (built
// before page checksums) open as-is. It touches nothing but path: a
// <path>.tmp may be another process's checkpoint in flight, so sweeping
// an orphaned one is left to the file's owner (RecoverIndexFile). On any
// error after the store opens, the store is closed.
func OpenIndexFile(path string, B, cachePages int) (*Store, Index, error) {
	b, pageSize, version, err := probeFile(path)
	if err != nil {
		return nil, nil, err
	}
	if B != 0 && B != b {
		return nil, nil, fmt.Errorf("segdb: %s was built with block capacity B=%d but was opened with B=%d; pass B=0 to probe the file", path, b, B)
	}
	st, err := openProbedStore(path, pageSize, version, cachePages)
	if err != nil {
		return nil, nil, err
	}
	ix, err := Open(st)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, ix, nil
}

// RecoverIndexFile applies the crash-recovery rule of the shadow-file
// commit protocol: a surviving <path>.tmp means a Build/Compact crashed
// before its rename, so the temporary is incomplete by definition and is
// deleted. The committed file at path, if any, is never touched. It
// reports whether an orphan was removed. Only the process that owns path
// may call it — OpenDurableIndex does — since to anyone else the .tmp
// may be a compaction still in flight.
func RecoverIndexFile(path string) bool {
	tmp := shadowPath(path)
	if _, err := os.Stat(tmp); err != nil {
		return false
	}
	return os.Remove(tmp) == nil
}
