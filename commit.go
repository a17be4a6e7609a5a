package segdb

import (
	"fmt"
	"os"

	"segdb/internal/pager"
)

// Index files are mutated only through a shadow-file commit: the new
// index is built at <path>.tmp, the file is fsynced, renamed over path,
// and the directory is fsynced. A crash at any point leaves either the
// old committed file or the new one — never a hybrid — and the orphaned
// .tmp is swept by the next build, or by the recovery pass of the
// file's owner (RecoverIndexFile, run by OpenDurableIndex). New files are
// written in catalog v3: every page carries a CRC32C trailer verified on
// read, so torn writes and bit-rot that a lying disk let through the
// protocol are still detected as ErrCorrupt instead of decoded into
// wrong answers.

// buildCachePages is the buffer-pool size used while building an index
// file; builds are write-heavy, so a modest pool suffices.
const buildCachePages = 64

// shadowPath returns the temporary path a build writes before its commit
// rename.
func shadowPath(path string) string { return path + ".tmp" }

// deviceWrapper lets tests interpose a fault-injecting device between
// the checksum layer and the shadow file; nil means none.
type deviceWrapper func(pager.Device) pager.Device

// BuildIndexFile builds a persisted index over segs atomically. The
// index is constructed in <path>.tmp with page checksums (catalog v3),
// fsynced, renamed over path, and the directory is fsynced — so a crash
// at any point leaves path holding either its previous contents or the
// complete new index. sol selects the paper's Solution 1 or 2;
// opt.B = 0 selects 32.
func BuildIndexFile(path string, opt Options, sol int, segs []Segment) error {
	return buildIndexFile(path, opt, sol, segs, nil)
}

func buildIndexFile(path string, opt Options, sol int, segs []Segment, wrap deviceWrapper) error {
	if opt.B == 0 {
		opt.B = 32
	}
	sh, err := openShadow(path, PageSizeFor(opt.B), wrap)
	if err != nil {
		return err
	}
	switch sol {
	case 1:
		_, err = CreateSolution1(sh.st, opt, segs)
	case 2:
		_, err = CreateSolution2(sh.st, opt, segs)
	default:
		err = fmt.Errorf("segdb: build %s: unknown solution %d", path, sol)
	}
	if err == nil {
		err = sh.sync()
	}
	if err != nil {
		sh.abort()
		return err
	}
	return sh.commit()
}

// shadow is an index being written at <path>.tmp, not yet renamed over
// path. A build fills it with CreateSolution1/2; DurableIndex.Compact
// copies the live pages into it instead (see compact).
type shadow struct {
	path string // the commit target; the shadow lives at shadowPath(path)
	st   *Store
}

// openShadow opens an empty checksummed (catalog v3) store at
// <path>.tmp with the given logical page size, wrap interposed between
// the checksum layer and the file.
func openShadow(path string, pageSize int, wrap deviceWrapper) (*shadow, error) {
	tmp := shadowPath(path)
	// A surviving .tmp is a crashed earlier build: incomplete by
	// definition, safe to discard.
	os.Remove(tmp)

	fdev, err := pager.OpenFileDevice(tmp, pager.PhysicalPageSize(pageSize))
	if err != nil {
		return nil, fmt.Errorf("segdb: build %s: %w", path, err)
	}
	var dev pager.Device = fdev
	if wrap != nil {
		dev = wrap(dev)
	}
	st, err := pager.Open(pager.NewChecksumDevice(dev, pageSize), pageSize, buildCachePages)
	if err != nil {
		dev.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("segdb: build %s: %w", path, err)
	}
	return &shadow{path: path, st: st}, nil
}

// sync is commit point 1: everything written so far (data pages and
// catalog) reaches the platter before the rename can expose the file
// under path.
func (sh *shadow) sync() error {
	if err := sh.st.Sync(); err != nil {
		return fmt.Errorf("segdb: build %s: sync: %w", sh.path, err)
	}
	return nil
}

// commit is the commit half: the atomic rename, made durable by the
// directory fsync. Before the rename a crash leaves the old file; after
// it, the new one.
func (sh *shadow) commit() error {
	if err := sh.st.Close(); err != nil {
		os.Remove(shadowPath(sh.path))
		return fmt.Errorf("segdb: build %s: close: %w", sh.path, err)
	}
	if err := pager.CommitFile(shadowPath(sh.path), sh.path); err != nil {
		return fmt.Errorf("segdb: build %s: %w", sh.path, err)
	}
	return nil
}

// abort discards the shadow; the committed file is untouched.
func (sh *shadow) abort() {
	sh.st.Close()
	os.Remove(shadowPath(sh.path))
}

// CompactIndexFile rewrites the index file at path balanced and tightly
// packed, through the same shadow-file commit as BuildIndexFile: a crash
// leaves either the old file or the compacted one. The rebuild keeps the
// index kind and configuration recorded in the catalog. Because the
// replacement is a fresh v3 build, compacting is also the upgrade path
// for pre-checksum (v2) files.
func CompactIndexFile(path string) error {
	return compactIndexFile(path, nil)
}

func compactIndexFile(path string, wrap deviceWrapper) error {
	st, ix, err := OpenIndexFile(path, 0, buildCachePages)
	if err != nil {
		return fmt.Errorf("segdb: compact %s: %w", path, err)
	}
	segs, err := ix.Collect()
	if err != nil {
		st.Close()
		return fmt.Errorf("segdb: compact %s: %w", path, err)
	}
	sol, opt := buildOptions(ix)
	if sol == 0 {
		st.Close()
		return fmt.Errorf("segdb: compact %s: index type %T has no rebuild path", path, ix)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("segdb: compact %s: close: %w", path, err)
	}
	return buildIndexFile(path, opt, sol, segs, wrap)
}
