package segdb

import (
	"errors"
	"fmt"
	"os"

	"segdb/internal/pager"
)

// VerifyIndexFile checks an index file end to end and returns the first
// problem found, or nil if the file is intact:
//
//   - the catalog header parses and, for v3, the catalog page's checksum
//     verifies (typed: ErrTruncated, ErrNotIndex, ErrVersion, ErrCorrupt);
//   - for v3 files, every physical page in the file verifies its CRC32C
//     trailer (pages that are entirely zero are allocated-but-unwritten
//     slack and are skipped — any flipped bit un-zeroes them and fails
//     the trailer check), and the file length is page-aligned;
//   - the index reattaches and a full structural walk (Collect) succeeds
//     with exactly the segment count the catalog records.
//
// The walk runs with a zero-page buffer pool, so no cache can mask a bad
// page. For v3 files this detects any single flipped byte anywhere in
// the file; v2 files predate checksums, so only structural and catalog
// damage is detectable.
//
// Verification only reads, and only path: it is safe on the checkpoint
// of a running daemon. In particular it leaves <path>.tmp alone — that
// file is the daemon's in-flight compaction as often as it is a crashed
// build's orphan, and only the owner of path can tell which.
func VerifyIndexFile(path string) error {
	_, pageSize, version, err := probeFile(path)
	if err != nil {
		return err
	}
	if version == catalogVersionChecksum {
		if err := verifyPhysicalPages(path, pageSize); err != nil {
			return err
		}
	}
	st, ix, err := OpenIndexFile(path, 0, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	segs, err := ix.Collect()
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return fmt.Errorf("segdb: verify %s: structural walk: %w", path, err)
		}
		// A walk that dies mid-structure on undamaged pages means the
		// pages decode but do not form a coherent index: corruption.
		return fmt.Errorf("segdb: verify %s: structural walk: %v: %w", path, err, ErrCorrupt)
	}
	if got, want := len(segs), ix.Len(); got != want {
		return fmt.Errorf("segdb: verify %s: walk found %d segments but the catalog records %d: %w",
			path, got, want, ErrCorrupt)
	}
	return nil
}

// verifyPhysicalPages scans every physical page of a v3 file and checks
// its checksum trailer, covering slack and freed pages the structural
// walk never touches.
func verifyPhysicalPages(path string, logicalPageSize int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("segdb: verify: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("segdb: verify %s: %w", path, err)
	}
	phys := int64(pager.PhysicalPageSize(logicalPageSize))
	if fi.Size()%phys != 0 {
		return fmt.Errorf("segdb: verify %s: size %d is not a multiple of the %d-byte physical page: %w",
			path, fi.Size(), phys, ErrTruncated)
	}
	buf := make([]byte, phys)
	for pg := int64(0); pg < fi.Size()/phys; pg++ {
		if _, err := f.ReadAt(buf, pg*phys); err != nil {
			return fmt.Errorf("segdb: verify %s: page %d unreadable: %w", path, pg+1, err)
		}
		if allZero(buf) {
			continue // never written: allocator slack, not corruption
		}
		if err := pager.VerifyPage(buf); err != nil {
			return fmt.Errorf("segdb: verify %s: page %d: %w", path, pg+1, err)
		}
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
