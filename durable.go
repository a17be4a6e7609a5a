package segdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"segdb/internal/pager"
	"segdb/internal/trace"
	"segdb/internal/wal"
)

// ErrReplica reports a direct write to a follower-mode DurableIndex:
// replicas change state only through ApplyReplicated, driven by the
// shipped leader log (internal/repl).
var ErrReplica = errors.New("segdb: read-only replica")

// DurableIndex is the online read-write form of a persisted index: a
// Solution-1 index served from memory, with every acknowledged
// Insert/Delete made crash-durable by a write-ahead log before the call
// returns. It is what `segdbd -wal` serves.
//
// # Design
//
// The index file at path is never mutated in place — it changes only
// through the shadow-file commit, during Compact, which writes the live
// store's pages to <path>.tmp and renames it over path. The live index
// lives on an in-memory store, rebuilt at open from the checkpoint
// file's segments plus a replay of the WAL tail. Crash safety therefore
// reduces to two already-proven protocols: the atomic checkpoint rename
// and the append-only CRC-framed log (internal/wal).
//
// An update applies to the live index first (so a validation error never
// reaches the log), appends one logical record, and acknowledges only
// after the log's group-commit fsync covers it. Readers see an update as
// soon as it applies — before the fsync — so a crash can lose a write
// that was briefly visible but never acknowledged; the durability
// promise is attached to the acknowledgement, not to visibility.
//
// Replay is idempotent (an insert record replays as delete-then-insert,
// an upsert), so recovery may replay the whole log over a checkpoint
// that already contains some of its records: the crash window between a
// checkpoint's commit rename and the log rotation needs no extra
// bookkeeping.
//
// If the log wedges (a failed append or fsync — durability unknowable),
// every later update fails with the latched error while reads keep
// working; reopen to recover. The one exception: if a failed append's
// rollback also fails, the live index has diverged from anything
// recovery can rebuild, so it is poisoned and reads fail too. Only Solution 1 qualifies: the paper's
// Theorem 1 structure is fully dynamic, while Solution 2 has no Delete
// and would break the upsert replay.
type DurableIndex struct {
	path      string
	epochPath string // "" = rotation epoch not persisted (injected-WAL tests)
	replica   bool
	wrap      deviceWrapper

	// epoch counts log rotations, persisted in a sidecar next to the WAL
	// so it survives restarts. Log shipping pairs every WAL position with
	// the epoch it belongs to: after a rotation, old positions name bytes
	// that no longer exist, and the epoch mismatch — not the offset — is
	// what tells a follower to re-snapshot instead of silently reading a
	// different log at the same offsets.
	epoch atomic.Uint64

	// replPos is the replication position recovered from the log's mark
	// records at open; only follower logs contain marks.
	replPos replPosition

	// upMu serializes apply+append so the log's record order is the
	// apply order — without it, two concurrent updates to the same
	// segment could replay in the opposite order they applied and
	// recovery would diverge from the served state. The group-commit
	// fsync runs outside upMu, so concurrent writers still coalesce
	// into one Sync.
	upMu sync.Mutex
	live *SyncIndex
	mem  *Store
	log  *wal.Log
	// memdev is the RAM device under mem, beneath any LiveDevice wrapper.
	// The store is write-through, so between updates it holds the whole
	// live index, page for page; compaction copies its snapshots into
	// the checkpoint file.
	memdev *pager.MemDevice

	// lastStall is how long the last compaction held upMu, in
	// nanoseconds: the part of its run time writers waited for.
	lastStall atomic.Int64

	// cfMu guards cf, the in-flight compaction; concurrent Compact
	// callers coalesce onto it instead of queueing a second rotation.
	cfMu sync.Mutex
	cf   *compactFlight

	// statsMu pairs the rotation epoch with the log's counters for
	// observers: Compact holds it across the epoch bump and the log
	// rotation, and WALStatus/ReplState read under it, so a stats
	// snapshot can never carry a pre-rotation size with a post-rotation
	// epoch (or vice versa). It is never held across I/O other than the
	// rotation truncate itself.
	statsMu sync.Mutex
}

// compactFlight is one in-flight Compact that concurrent callers wait
// on: done closes after err is set.
type compactFlight struct {
	done chan struct{}
	err  error
}

// replPosition is a leader position (epoch, LSN) recovered from mark
// records; ok is false when the log holds none.
type replPosition struct {
	epoch uint64
	lsn   int64
	ok    bool
}

// DurableOptions configures OpenDurableIndex.
type DurableOptions struct {
	// Build configures the index when path does not exist yet; an
	// existing file's catalog wins over it. Zero-value B selects 32.
	Build Options
	// CachePages sizes the live in-memory store's buffer pool; 0 selects
	// 256. The pool is what PagesRead/PoolHits attribution observes.
	CachePages int
	// GroupCommitWindow is how long a commit leader waits before its
	// fsync so concurrent writers can join the batch; 0 syncs
	// immediately (concurrent commits still coalesce).
	GroupCommitWindow time.Duration
	// Replica opens the index in follower mode: Insert and Delete refuse
	// with ErrReplica, and state changes only through ApplyReplicated —
	// the shipped leader log stays the single source of mutations.
	Replica bool
	// WALFile substitutes the log's backing file — the fault-injection
	// hook crash tests use. When set, walPath is not opened and the
	// rotation epoch is not persisted across reopens.
	WALFile wal.File
	// CheckpointDevice interposes on the checkpoint file's page device
	// during Compact — the fault-injection hook checkpoint crash tests
	// use; nil means none.
	CheckpointDevice func(pager.Device) pager.Device
	// LiveDevice interposes on the live serving store's page device, the
	// one pool misses (PagesRead) fall through to. Benchmarks use it to
	// charge a modeled storage latency per miss on testbeds whose files
	// are RAM-cached (E21); nil means none.
	LiveDevice func(pager.Device) pager.Device

	// epochPath is where the rotation epoch persists; OpenDurableIndex
	// derives it from walPath.
	epochPath string
}

// OpenDurableIndex opens (creating if absent) the Solution-1 index file
// at path and its write-ahead log at walPath, replays the log tail, and
// returns the index ready to serve reads and durable writes. The log's
// rotation epoch persists in a sidecar at walPath + ".epoch".
func OpenDurableIndex(path, walPath string, dopt DurableOptions) (*DurableIndex, error) {
	if dopt.WALFile != nil {
		return openDurableIndex(path, dopt, dopt.WALFile, deviceWrapper(dopt.CheckpointDevice))
	}
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segdb: open wal: %w", err)
	}
	dopt.epochPath = walPath + ".epoch"
	d, err := openDurableIndex(path, dopt, f, deviceWrapper(dopt.CheckpointDevice))
	if err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// openDurableIndex is OpenDurableIndex on an injectable WAL file and
// checkpoint device wrapper — the crash-matrix test hook.
func openDurableIndex(path string, dopt DurableOptions, walFile wal.File, wrap deviceWrapper) (*DurableIndex, error) {
	if dopt.CachePages == 0 {
		dopt.CachePages = 256
	}
	// The owner's recovery pass: a surviving <path>.tmp is a compaction
	// or build that died before its rename. Only the owner may sweep it;
	// to any other reader it may be this process's compaction in flight.
	RecoverIndexFile(path)
	if fi, err := os.Stat(path); os.IsNotExist(err) || (err == nil && fi.Size() == 0) {
		// First boot — or a zero-length file, which is what O_CREATE
		// leaves when a bootstrap or rotation is interrupted before the
		// first byte. No committed page exists either way, so commit an
		// empty checkpoint and every later open — including recovery —
		// goes through the same path.
		if err := buildIndexFile(path, dopt.Build, 1, nil, wrap); err != nil {
			return nil, err
		}
	}

	st, ix, err := OpenIndexFile(path, 0, buildCachePages)
	if err != nil {
		return nil, err
	}
	sol, opt := buildOptions(ix)
	if sol != 1 {
		st.Close()
		return nil, fmt.Errorf("segdb: durable index %s: got index type %T, need Solution 1 (the fully dynamic structure)", path, ix)
	}
	segs, err := ix.Collect()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("segdb: durable index %s: %w", path, err)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("segdb: durable index %s: close: %w", path, err)
	}

	memdev := pager.NewMemDevice(PageSizeFor(opt.B))
	livedev := pager.Device(memdev)
	if dopt.LiveDevice != nil {
		livedev = dopt.LiveDevice(livedev)
	}
	mem, err := pager.Open(livedev, PageSizeFor(opt.B), dopt.CachePages)
	if err != nil {
		return nil, fmt.Errorf("segdb: durable index %s: live store: %w", path, err)
	}
	// Page 1 stays the catalog's, so the live pages are the checkpoint
	// file's pages as they stand (see compact).
	err = reserveCatalog(mem)
	var liveIx Index
	if err == nil {
		liveIx, err = BuildSolution1(mem, opt, segs)
	}
	if err != nil {
		mem.Close()
		return nil, fmt.Errorf("segdb: durable index %s: rebuild live: %w", path, err)
	}
	live := SynchronizedOn(liveIx, mem)

	var pos replPosition
	log, err := wal.Open(walFile, dopt.GroupCommitWindow, func(r wal.Record) error {
		if r.Op == wal.OpMark {
			// A follower's position marker: the records after it continue
			// the leader log from this (epoch, LSN). Not an index update.
			e, lsn := r.Mark()
			pos = replPosition{epoch: e, lsn: lsn, ok: true}
			return nil
		}
		// The checkpoint may already hold this record (crash between
		// checkpoint rename and log rotation); apply is an upsert, so the
		// state converges on apply order either way.
		if _, _, err := live.apply(r); err != nil {
			return err
		}
		if pos.ok {
			pos.lsn += wal.RecordSize
		}
		return nil
	})
	if err != nil {
		mem.Close()
		return nil, fmt.Errorf("segdb: durable index %s: %w", path, err)
	}

	d := &DurableIndex{
		path:      path,
		epochPath: dopt.epochPath,
		replica:   dopt.Replica,
		wrap:      wrap,
		replPos:   pos,
		live:      live,
		mem:       mem,
		memdev:    memdev,
		log:       log,
	}
	if d.epochPath != "" {
		epoch, err := loadEpoch(d.epochPath)
		if err != nil {
			log.Close()
			mem.Close()
			return nil, fmt.Errorf("segdb: durable index %s: %w", path, err)
		}
		d.epoch.Store(epoch)
	}
	return d, nil
}

// loadEpoch reads the persisted rotation epoch; a missing sidecar is
// epoch 0 (the file appears with the first rotation).
func loadEpoch(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("read epoch: %w", err)
	}
	e, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("epoch sidecar %s corrupt: %q", path, b)
	}
	return e, nil
}

// storeEpoch durably replaces the epoch sidecar through the publish
// protocol — same commit shape as the checkpoint itself, so a crash
// leaves the old epoch or the new one, never garbage.
func storeEpoch(path string, e uint64) error {
	err := pager.PublishFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, strconv.FormatUint(e, 10)+"\n")
		return err
	})
	if err != nil {
		return fmt.Errorf("store epoch: %w", err)
	}
	return nil
}

// Index returns the live index for reads: queries, batches and Len run
// against it exactly as against any SyncIndex. Do not mutate through it
// — updates must go through the DurableIndex or they are not logged.
func (d *DurableIndex) Index() *SyncIndex { return d.live }

// Store returns the in-memory store the live index runs on, for I/O
// stats.
func (d *DurableIndex) Store() *Store { return d.mem }

// apply applies one logged index update under the exclusive lock. It is
// the one upsert rule the write path, recovery replay and
// ApplyReplicated share: an insert is delete-then-insert and a delete
// of an absent segment is a no-op, so re-applying a record the state
// already holds — a checkpoint that contains part of its log, a
// redelivered replication batch, a re-insert of an identical segment —
// converges on one copy. A plain insert would let the live index hold
// exact duplicates that replay (and every replica) collapses, and the
// first logged delete of such a segment would then diverge the live
// state from anything the WAL can reconstruct.
//
// had reports whether the segment was present before. The returned
// window covers the record's own operation: the insert for OpInsert (not
// the delete that precedes it), the delete for OpDelete.
func (s *SyncIndex) apply(rec wal.Record) (had bool, st UpdateStats, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return false, UpdateStats{}, s.fatal
	}
	w, w0 := s.beginWrite()
	had, err = s.ix.Delete(rec.Seg)
	if err == nil && rec.Op == wal.OpInsert {
		w, w0 = s.beginWrite()
		err = s.ix.Insert(rec.Seg)
	}
	return had, s.endWrite(w, w0), err
}

// Insert durably adds a segment: it applies to the live index, appends
// an insert record, and returns once the record is fsync-covered. On
// success the segment survives any crash; on error it was either never
// applied (validation) or never acknowledged. Re-inserting an identical
// segment keeps one copy (see apply). The caller owns the NCT contract,
// as with every Insert in this package.
func (d *DurableIndex) Insert(seg Segment) (UpdateStats, error) {
	return d.InsertContext(context.Background(), seg)
}

// InsertContext is Insert with trace attribution: when ctx carries a
// trace (internal/trace), the update's stages land as spans — apply (the
// live-index mutation), wal_append (the buffered record write), and
// wal_commit (the group-commit acknowledgement, with a wal_fsync child
// when this commit led the fsync). An untraced ctx adds no timing work.
func (d *DurableIndex) InsertContext(ctx context.Context, seg Segment) (UpdateStats, error) {
	_, st, err := d.update(ctx, wal.Record{Op: wal.OpInsert, Seg: seg})
	return st, err
}

// Delete durably removes a segment. A segment that was not present is
// (false, nil) and writes no record.
func (d *DurableIndex) Delete(seg Segment) (bool, UpdateStats, error) {
	return d.DeleteContext(context.Background(), seg)
}

// DeleteContext is Delete with trace attribution; see InsertContext for
// the span layout.
func (d *DurableIndex) DeleteContext(ctx context.Context, seg Segment) (bool, UpdateStats, error) {
	return d.update(ctx, wal.Record{Op: wal.OpDelete, Seg: seg})
}

// update is the durable write path of Insert and Delete: apply+append
// under upMu, then the group-commit acknowledgement outside it. had
// reports whether the segment was present before.
func (d *DurableIndex) update(ctx context.Context, rec wal.Record) (had bool, st UpdateStats, err error) {
	if d.replica {
		return false, UpdateStats{}, ErrReplica
	}
	had, st, lsn, err := d.applyLogged(ctx, rec)
	if err != nil || lsn == 0 {
		return had, st, err
	}
	return had, st, d.syncTraced(ctx, lsn)
}

// applyLogged applies rec to the live index and appends it to the log,
// atomically under upMu. lsn is 0 when nothing was logged: the delete of
// an absent segment changes nothing and writes no record.
func (d *DurableIndex) applyLogged(ctx context.Context, rec wal.Record) (had bool, st UpdateStats, lsn int64, err error) {
	d.upMu.Lock()
	defer d.upMu.Unlock()
	if err := d.log.Wedged(); err != nil {
		return false, UpdateStats{}, 0, err
	}
	op, undo := "insert", wal.OpDelete
	if rec.Op == wal.OpDelete {
		op, undo = "delete", wal.OpInsert
	}
	traced := trace.Active(ctx)
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	had, st, err = d.live.apply(rec)
	if traced {
		trace.AddSpan(ctx, trace.StageApply, time.Since(t0),
			trace.Tag{K: "op", V: op},
			trace.Tag{K: "pages_written", V: strconv.FormatInt(st.PagesWritten, 10)})
	}
	if err != nil || (rec.Op == wal.OpDelete && !had) {
		return had, st, 0, err
	}
	if traced {
		t0 = time.Now()
	}
	lsn, err = d.log.Append(rec)
	if traced {
		trace.AddSpan(ctx, trace.StageWALAppend, time.Since(t0))
	}
	if err != nil {
		// Roll the apply back so reads do not serve a write the log
		// never saw. The log is wedged, so no later write can interleave
		// with the rollback. If the rollback itself fails the live index
		// has permanently diverged from what recovery would rebuild —
		// poison it so reads refuse too, instead of serving a state the
		// WAL cannot reconstruct. An upserted-over duplicate needs no
		// reinstating: the delete+insert left the same single copy the
		// log already reconstructs.
		if rec.Op == wal.OpDelete || !had {
			if _, _, rerr := d.live.apply(wal.Record{Op: undo, Seg: rec.Seg}); rerr != nil {
				d.live.poison(fmt.Errorf("segdb: %s %d: rollback after append failure (%v) failed: %w", op, rec.Seg.ID, err, rerr))
			}
		}
		return had, st, 0, err
	}
	return had, st, lsn, nil
}

// syncTraced acknowledges lsn through the group commit. On a traced ctx
// the acknowledgement becomes a wal_commit span carrying the queue wait
// and window tags, with a wal_fsync child when this committer led the
// batch's fsync (a covered committer shows wal_commit alone — the span
// shape distinguishes "paid an fsync" from "drafted behind one").
func (d *DurableIndex) syncTraced(ctx context.Context, lsn int64) error {
	if !trace.Active(ctx) {
		return d.log.Sync(lsn)
	}
	cctx, sp := trace.StartSpan(ctx, trace.StageWALCommit)
	var obs wal.SyncStats
	err := d.log.SyncObserve(lsn, &obs)
	switch {
	case obs.Covered:
		sp.Tag("covered", "true")
	default:
		sp.Tag("leader", strconv.FormatBool(obs.Leader))
		sp.TagInt("wait_us", obs.Wait.Microseconds())
		if obs.Window > 0 {
			sp.TagInt("window_us", obs.Window.Microseconds())
		}
		if obs.Fsync > 0 {
			trace.AddSpan(cctx, trace.StageWALFsync, obs.Fsync)
		}
	}
	if err != nil {
		sp.Tag("error", err.Error())
	}
	sp.End()
	return err
}

// Compact checkpoints: it writes the live index's pages to the index
// file through the shadow-file commit (crash leaves the old checkpoint or
// the new one, never a hybrid) and then rotates the log. The copy runs
// beside the writers: updates and queries wait only for the mark at the
// start and the publish at the end (see compact), which write only the
// pages changed during the copy; LastCompactStall reports how long. A
// crash after the commit rename but before the rotation is benign — the
// stale records replay as upserts over the new checkpoint.
//
// Compact is single-flight: concurrent callers coalesce onto the
// rotation already in progress and return its error, instead of queueing
// a second checkpoint behind it. Nothing in the system wants
// back-to-back rotations — an admin call racing a SIGTERM checkpoint, or
// the background governor racing either, means the same WAL records; a
// joiner's write acknowledged before the leader's publish is in the
// new checkpoint, a later one in the post-rotation log, where replay
// finds it. A caller that needs a checkpoint covering a specific write
// must call again after the in-flight one returns.
func (d *DurableIndex) Compact() error {
	d.cfMu.Lock()
	if f := d.cf; f != nil {
		d.cfMu.Unlock()
		<-f.done
		return f.err
	}
	f := &compactFlight{done: make(chan struct{})}
	d.cf = f
	d.cfMu.Unlock()

	err := d.compact()

	d.cfMu.Lock()
	f.err = err
	d.cf = nil
	d.cfMu.Unlock()
	close(f.done)
	return err
}

// LastCompactStall reports how long the most recent compaction held the
// update lock — the part of its run time writers waited for, as opposed
// to the run time its caller measured.
func (d *DurableIndex) LastCompactStall() time.Duration {
	return time.Duration(d.lastStall.Load())
}

// compact is the checkpoint+rotation body, running with the
// single-flight slot held. The live store is write-through and keeps
// page 1 for the catalog, so its RAM device holds the checkpoint file's
// pages as they stand; compaction copies them rather than rebuilding the
// index from its segments. It has three phases, and nothing
// proportional to the index runs under upMu in any of them:
//
//  1. mark, under upMu and the live shared lock: freeze the live pages
//     (a copy-on-write snapshot of the RAM device, no page is read or
//     written).
//  2. copy, beside the writers: write every frozen page to the shadow
//     checkpoint and fsync it.
//  3. publish, under upMu and the live shared lock: freeze again, write
//     the pages whose buffers changed since the mark and the catalog of
//     the live index, fsync, rename the shadow over the checkpoint,
//     bump the epoch, rotate the log.
//
// At the rename the shadow holds the live pages and the live index's
// catalog, so it equals the live state and the log being retired adds
// nothing to it. That instant is the only one writers must be kept out
// of. Any failure — or a log found wedged at publish — aborts the
// shadow, leaving the old checkpoint and the full log.
func (d *DurableIndex) compact() error {
	var held time.Duration
	defer func() { d.lastStall.Store(int64(held)) }()

	d.upMu.Lock()
	t0 := time.Now()
	d.live.mu.RLock()
	marked, err := d.freeze()
	d.live.mu.RUnlock()
	held += time.Since(t0)
	d.upMu.Unlock()
	if err != nil {
		return err
	}
	defer marked.Close()

	sh, err := openShadow(d.path, d.mem.PageSize(), d.wrap)
	if err != nil {
		return fmt.Errorf("segdb: checkpoint %s: %w", d.path, err)
	}
	if err = sh.copyPages(marked, marked.Changed(nil)); err == nil {
		err = sh.sync()
	}
	if err != nil {
		sh.abort()
		return fmt.Errorf("segdb: checkpoint %s: %w", d.path, err)
	}

	d.upMu.Lock()
	defer d.upMu.Unlock()
	t0 = time.Now()
	d.live.mu.RLock()
	err = d.publish(sh, marked)
	d.live.mu.RUnlock()
	held += time.Since(t0)
	return err
}

// freeze snapshots the live pages. Requires upMu and the live shared
// lock: the first keeps out the durable writers, the second anything
// that mutates the live index without upMu.
func (d *DurableIndex) freeze() (*pager.MemSnapshot, error) {
	if err := d.log.Wedged(); err != nil {
		return nil, err
	}
	if d.live.fatal != nil {
		return nil, d.live.fatal
	}
	return d.memdev.Snapshot(), nil
}

// copyPages writes the listed pages of snap to the shadow. Page 1
// (device index 0) is skipped: it is the catalog, which only Save
// writes.
func (sh *shadow) copyPages(snap *pager.MemSnapshot, idx []uint32) error {
	page := make([]byte, sh.st.PageSize())
	for _, i := range idx {
		if i == 0 {
			continue
		}
		if err := snap.ReadPage(i, page); err != nil {
			return err
		}
		if err := sh.st.Write(pager.PageID(i+1), page); err != nil {
			return err
		}
	}
	return nil
}

// publish is compaction phase 3. Requires upMu and the live shared
// lock, which make the live state the last one the retiring log will
// ever describe.
func (d *DurableIndex) publish(sh *shadow, marked *pager.MemSnapshot) error {
	fail := func(err error) error { return fmt.Errorf("segdb: checkpoint %s: %w", d.path, err) }
	now, err := d.freeze()
	if err != nil {
		sh.abort()
		return err
	}
	defer now.Close()
	sh.st.Reserve(d.mem.NextPage())
	if err = sh.copyPages(now, now.Changed(marked)); err == nil {
		err = Save(sh.st, d.live.ix)
	}
	if err == nil {
		err = sh.sync()
	}
	if err != nil {
		sh.abort()
		return fail(err)
	}
	if err := sh.commit(); err != nil {
		return fail(err)
	}
	// The epoch bump commits strictly between the checkpoint and the
	// rotation, and the in-memory mirror advances before the truncate.
	// Both orderings matter for log shipping: a crash in either window
	// leaves a checkpoint that the full surviving log upserts back to
	// itself, so any (epoch, position) a follower holds stays a true
	// prefix; and a reader that double-checks the epoch around a WAL read
	// can never miss a rotation, because the bump is visible before any
	// old byte is overwritten. statsMu spans both so a stats observer
	// sees the epoch and the log counters move together.
	next := d.epoch.Load() + 1
	if d.epochPath != "" {
		if err := storeEpoch(d.epochPath, next); err != nil {
			return fail(err)
		}
	}
	d.statsMu.Lock()
	d.epoch.Store(next)
	err = d.log.Reset()
	d.statsMu.Unlock()
	return err
}

// WALStatus is a consistent observability snapshot: the rotation epoch
// and the log counters that belong to it, taken together under the
// stats mutex so a rotation cannot tear the pairing (a new epoch with
// the old log's size, or a reset size under the old epoch).
type WALStatus struct {
	Epoch   uint64
	Records int64
	Size    int64
	Durable int64
}

// WALStatus reports the epoch-consistent WAL snapshot. Within one
// observed epoch, Size never decreases across successive calls.
func (d *DurableIndex) WALStatus() WALStatus {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	records, size, durable := d.log.Stats()
	return WALStatus{Epoch: d.epoch.Load(), Records: records, Size: size, Durable: durable}
}

// WALStats reports the log's size in records, bytes appended, and the
// durable watermark — the serving layer's observability hook.
func (d *DurableIndex) WALStats() (records, size, durable int64) {
	st := d.WALStatus()
	return st.Records, st.Size, st.Durable
}

// WALWedged reports the log's latched write/sync failure, or nil while
// writes are healthy — the /statsz wedged gauge.
func (d *DurableIndex) WALWedged() error { return d.log.Wedged() }

// ReplState reports the current rotation epoch and the log's durability
// watermark — together, the leader position a fully caught-up follower
// would hold. The pair is taken under the stats mutex so a concurrent
// rotation cannot hand out a new epoch with the old log's watermark.
func (d *DurableIndex) ReplState() (epoch uint64, durable int64) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return d.epoch.Load(), d.log.Durable()
}

// WALChanged returns a channel closed the next time the log's durability
// watermark moves; see wal.Log.DurableChanged for the lost-wakeup-safe
// wait pattern. Log shipping long-polls on it.
func (d *DurableIndex) WALChanged() <-chan struct{} { return d.log.DurableChanged() }

// ReadWAL copies committed log bytes at byte offset from — which must
// belong to rotation epoch — into buf, returning how many bytes it
// copied (whole records; zero means the reader is caught up). A stale
// epoch, or a rotation overlapping the read, reports wal.ErrLogRotated:
// the reader's position names bytes that no longer exist and it must
// re-snapshot. The epoch is checked on both sides of the read; Compact
// publishes the new epoch before it truncates, so a rotation can never
// slip new-epoch bytes into an old-epoch read unnoticed.
func (d *DurableIndex) ReadWAL(epoch uint64, from int64, buf []byte) (int, error) {
	if cur := d.epoch.Load(); cur != epoch {
		return 0, fmt.Errorf("segdb: wal epoch %d superseded by %d: %w", epoch, cur, wal.ErrLogRotated)
	}
	n, err := d.log.ReadDurable(from, buf)
	if err != nil {
		return 0, err
	}
	if cur := d.epoch.Load(); cur != epoch {
		return 0, fmt.Errorf("segdb: wal epoch %d superseded by %d during read: %w", epoch, cur, wal.ErrLogRotated)
	}
	return n, nil
}

// SnapshotInfo pairs a checkpoint's content with the log position that
// completes it: tailing the leader's WAL of Epoch from LSN and applying
// every record as an upsert reconstructs the live state exactly.
type SnapshotInfo struct {
	Epoch   uint64
	LSN     int64 // where tailing starts: the epoch's first record
	Size    int64 // checkpoint file bytes
	Durable int64 // log durability watermark at snapshot time, same epoch
}

// Snapshot opens the current checkpoint file for a follower bootstrap.
// The (file, epoch) pairing is taken under the update lock, so the
// checkpoint plus the epoch's full log is exactly the live state; the
// returned fd keeps serving the opened inode even if a concurrent
// Compact renames a fresh checkpoint over the path, so streaming the
// body needs no lock. A follower whose snapshot's epoch is superseded by
// the time it tails simply gets ErrLogRotated and snapshots again.
func (d *DurableIndex) Snapshot() (io.ReadCloser, SnapshotInfo, error) {
	d.upMu.Lock()
	defer d.upMu.Unlock()
	f, err := os.Open(d.path)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("segdb: snapshot %s: %w", d.path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, SnapshotInfo{}, fmt.Errorf("segdb: snapshot %s: %w", d.path, err)
	}
	return f, SnapshotInfo{
		Epoch:   d.epoch.Load(),
		LSN:     wal.HeaderSize,
		Size:    fi.Size(),
		Durable: d.log.Durable(),
	}, nil
}

// ApplyReplicated applies shipped leader records on a follower: each
// record upserts into the live index (apply, the rule recovery replay
// uses, so a redelivered prefix converges instead of corrupting) and is
// appended to the local log; one Sync covers the whole batch. On an
// apply or append error the live state may have diverged from the local
// log mid-batch; the follower recovers by reopening, which rebuilds from
// what the local log durably holds.
func (d *DurableIndex) ApplyReplicated(recs []wal.Record) error {
	d.upMu.Lock()
	var lsn int64
	err := d.log.Wedged()
	if err == nil {
		for _, r := range recs {
			if r.Op == wal.OpMark {
				err = fmt.Errorf("segdb: apply replicated: leader stream carries a mark record")
				break
			}
			if _, _, err = d.live.apply(r); err != nil {
				break
			}
			if lsn, err = d.log.Append(r); err != nil {
				break
			}
		}
	}
	d.upMu.Unlock()
	if err != nil {
		return err
	}
	if lsn == 0 {
		return nil // empty batch
	}
	return d.log.Sync(lsn)
}

// AppendMark durably appends a replication position marker declaring
// that the local log continues the leader's log from (epoch, lsn). A
// follower writes one as the first record after every local rotation —
// bootstrap or compaction — so a restart can recover its position from
// the log alone; a log with no mark has no trustworthy position and the
// follower bootstraps afresh.
func (d *DurableIndex) AppendMark(epoch uint64, lsn int64) error {
	d.upMu.Lock()
	at, err := d.log.Append(wal.MarkRecord(epoch, lsn))
	d.upMu.Unlock()
	if err != nil {
		return err
	}
	return d.log.Sync(at)
}

// ReplPosition reports the leader position the local state corresponds
// to, recovered at open from the log's last mark record plus the records
// replayed after it. ok is false when the log holds no mark — the state
// cannot be positioned against any leader log and a follower must
// bootstrap from a snapshot.
func (d *DurableIndex) ReplPosition() (epoch uint64, lsn int64, ok bool) {
	return d.replPos.epoch, d.replPos.lsn, d.replPos.ok
}

// Close syncs and closes the log and releases the live store. It does
// not checkpoint; call Compact first for a clean shutdown that empties
// the log.
func (d *DurableIndex) Close() error {
	err := d.log.Close()
	if cerr := d.mem.Close(); err == nil {
		err = cerr
	}
	return err
}
