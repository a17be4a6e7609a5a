// Package shard is the horizontal-scaling layer over segdb: an x-range
// partitioner that splits one NCT segment set into K disjoint vertical
// slabs, each served by its own segdb.DurableIndex (own checkpoint file,
// own write-ahead log, own buffer pool), glued together by a
// scatter-gather Store that serves the same Query/QueryBatch/
// Insert/Delete surface as a single DurableIndex.
//
// # Partitioning
//
// K-1 strictly increasing cuts c_0 < c_1 < ... < c_{K-2} split the x
// axis into K slabs: slab 0 is (-inf, c_0), slab k is [c_{k-1}, c_k),
// slab K-1 is [c_{K-2}, +inf). A segment is owned by the slab containing
// its left endpoint (MinX; a left endpoint exactly on a cut belongs to
// the slab to the cut's right), so ownership is a function of the
// segment alone and every segment lives in exactly one shard index.
//
// A segment may still extend past its slab: for every cut c it crosses
// (MinX < c and MaxX >= c — touching counts, so a query exactly on the
// cut still finds segments ending there), it is also registered in that
// cut's "spanners" side list. A VS query at x routes to exactly one slab
// index, plus the spanner list of that slab's left cut. That list is
// sufficient: a hit owned by a slab further left necessarily crosses the
// left cut, and no hit can be owned by a slab to the right (its MinX
// would exceed x). It is also non-overlapping with the slab's own index
// (spanners have MinX strictly left of the slab), so scatter-gather
// answers need no deduplication — the differential suite leans on this
// to assert exact multiset equality with an unsharded index.
//
// # Durability
//
// All durable state is per shard: each slab's checkpoint + WAL carry its
// own segments under the protocols segdb.DurableIndex already proves
// (apply-then-log, group commit, upsert replay, shadow-commit
// checkpoints). The spanner lists are derived data, rebuilt at Open from
// each shard's recovered contents, so sharding adds no new crash
// protocol — only the manifest, which is committed with the same
// tmp/fsync/rename/dir-fsync shape as every other atomic file in the
// repo. Open refuses a store whose manifest promises shards that have
// lost their checkpoint or WAL file (ErrPartial): a missing shard would
// otherwise silently reopen empty and serve holes.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"segdb"
	"segdb/internal/pager"
	"segdb/internal/trace"
)

// ErrExists reports a Create into a directory that already holds a
// sharded store (a manifest).
var ErrExists = errors.New("shard: store already exists")

// ErrPartial reports an Open of a store whose manifest names shard files
// that are missing — a half-recovered directory that must not silently
// serve with holes in it.
var ErrPartial = errors.New("shard: store is missing shard files (half-recovered?)")

// ErrCuts reports that a cut vector could not be chosen or validated:
// too few distinct left endpoints, or cuts not strictly increasing.
var ErrCuts = errors.New("shard: invalid cuts")

// Config tunes Create and Open.
type Config struct {
	// Shards is K, the slab count. Create requires it; Open accepts 0
	// ("use the manifest") and otherwise insists it matches the manifest.
	Shards int
	// Cuts are the K-1 strictly increasing slab boundaries for Create;
	// nil lets Create choose left-endpoint quantiles of the initial set.
	// Open always uses the manifest's cuts.
	Cuts []float64
	// Durable is the per-shard DurableOptions template (build options,
	// cache pages, group-commit window). Each shard gets its own copy.
	Durable segdb.DurableOptions
	// Workers bounds parallel per-shard work (Open replay, Create build,
	// Compact); 0 selects GOMAXPROCS. Query fan-out is bounded per batch
	// call instead, mirroring segdb.QueryBatchContext.
	Workers int
	// PerShard, if set, adjusts shard k's DurableOptions after the
	// template copy — the fault-injection hook the crash matrices use to
	// hand one shard a wal.FaultFile (WALFile) or a crashing checkpoint
	// device (CheckpointDevice) while the other shards run healthy.
	PerShard func(k int, dopt *segdb.DurableOptions)
}

const manifestName = "MANIFEST"

// manifest is the store's durable configuration: the partitioning every
// reopen must agree on. It is the commit point of Create — checkpoints
// without a manifest are an aborted creation, a manifest without its
// checkpoints is ErrPartial.
type manifest struct {
	Version int       `json:"version"`
	Shards  int       `json:"shards"`
	Cuts    []float64 `json:"cuts"`
}

func manifestPath(dir string) string { return filepath.Join(dir, manifestName) }

func shardDBPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.db", k))
}

func shardWALPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", k))
}

// writeManifest commits the manifest through the publish protocol — a
// crash leaves no manifest (aborted Create) or the whole one, never a
// torn file.
func writeManifest(dir string, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	err = pager.PublishFile(manifestPath(dir), func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	return nil
}

func readManifest(dir string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return m, fmt.Errorf("shard: %s is not a sharded store (no manifest): %w", dir, err)
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("shard: manifest %s corrupt: %w", manifestPath(dir), err)
	}
	if m.Version != 1 {
		return m, fmt.Errorf("shard: manifest %s: unsupported version %d", manifestPath(dir), m.Version)
	}
	if err := validateCuts(m.Cuts, m.Shards); err != nil {
		return m, fmt.Errorf("shard: manifest %s: %w", manifestPath(dir), err)
	}
	return m, nil
}

// validateCuts checks cuts against K: exactly K-1 of them, strictly
// increasing, all finite.
func validateCuts(cuts []float64, k int) error {
	if k < 1 {
		return fmt.Errorf("%w: need at least 1 shard, got %d", ErrCuts, k)
	}
	if len(cuts) != k-1 {
		return fmt.Errorf("%w: %d shards need %d cuts, got %d", ErrCuts, k, k-1, len(cuts))
	}
	for i, c := range cuts {
		if c != c || c-c != 0 { // NaN or ±Inf
			return fmt.Errorf("%w: cut %d is not finite", ErrCuts, i)
		}
		if i > 0 && cuts[i-1] >= c {
			return fmt.Errorf("%w: cuts must be strictly increasing (cut %d: %g >= %g)", ErrCuts, i, cuts[i-1], c)
		}
	}
	return nil
}

// ChooseCuts picks K-1 strictly increasing cuts as left-endpoint
// quantiles of segs, so the initial ownership counts are balanced. It
// fails with ErrCuts when segs has fewer than K distinct left endpoints
// — no strictly increasing cut vector could separate them.
func ChooseCuts(segs []segdb.Segment, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: need at least 1 shard, got %d", ErrCuts, k)
	}
	if k == 1 {
		return nil, nil
	}
	xs := make([]float64, 0, len(segs))
	for _, s := range segs {
		xs = append(xs, s.MinX())
	}
	sort.Float64s(xs)
	distinct := xs[:0]
	for i, x := range xs {
		if i == 0 || x != distinct[len(distinct)-1] {
			distinct = append(distinct, x)
		}
	}
	if len(distinct) < k {
		return nil, fmt.Errorf("%w: %d shards need %d distinct left endpoints, have %d",
			ErrCuts, k, k, len(distinct))
	}
	cuts := make([]float64, k-1)
	for i := range cuts {
		// floor((i+1)*m/k) is strictly increasing in i for m >= k, and
		// never 0, so every cut is a real left endpoint with data to its
		// left — no empty leading slab, no duplicate cuts.
		cuts[i] = distinct[(i+1)*len(distinct)/k]
	}
	return cuts, nil
}

// slabOf returns the slab owning x: the number of cuts <= x, so a value
// exactly on a cut belongs to the slab starting there.
func slabOf(cuts []float64, x float64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > x })
}

// crossRange returns the segment's owner slab and the half-open range
// [owner, hi) of cut indices it crosses (MinX < cuts[i] && MaxX >=
// cuts[i]). The two coincide because the first cut right of MinX indexes
// both the owner slab's right boundary and the first crossable cut.
func crossRange(cuts []float64, seg segdb.Segment) (owner, hi int) {
	owner = slabOf(cuts, seg.MinX())
	hi = sort.Search(len(cuts), func(i int) bool { return cuts[i] > seg.MaxX() })
	if hi < owner {
		hi = owner
	}
	return owner, hi
}

// Store is the scatter-gather face of K per-slab DurableIndexes. It
// serves the DurableIndex surface — Query/QueryContext/QueryBatch/
// QueryBatchContext reads, durable Insert/Delete writes with per-update
// I/O attribution, Compact, WALStats/WALWedged — and is safe for
// concurrent use: reads fan into the owning shard's SyncIndex under its
// shared lock, spanner lists are copy-on-write under their own RWMutex.
type Store struct {
	dir     string
	cuts    []float64
	shards  []*segdb.DurableIndex
	workers int

	// spans[i] lists the segments crossing cuts[i], maintained
	// copy-on-write: mutations build fresh slices under spanMu, queries
	// grab the slice header under RLock and scan without it. A query
	// therefore always sees some consistent recent list, never a torn
	// one.
	spanMu sync.RWMutex
	spans  [][]segdb.Segment
}

// Create builds a new sharded store in dir from an initial NCT segment
// set: it chooses (or validates) the cuts, builds every shard's
// checkpoint in parallel through the crash-safe shadow commit, commits
// the manifest — the creation's atomic commit point — and opens the
// result. A directory that already holds a manifest is refused with
// ErrExists; a crash before the manifest leaves an aborted creation any
// later Create may overwrite.
func Create(dir string, cfg Config, segs []segdb.Segment) (*Store, error) {
	k := cfg.Shards
	cuts := cfg.Cuts
	if cuts == nil && k > 1 {
		var err error
		if cuts, err = ChooseCuts(segs, k); err != nil {
			return nil, err
		}
	}
	if err := validateCuts(cuts, k); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: create %s: %w", dir, err)
	}
	if _, err := os.Stat(manifestPath(dir)); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, manifestPath(dir))
	}

	parts := make([][]segdb.Segment, k)
	for _, s := range segs {
		owner := slabOf(cuts, s.MinX())
		parts[owner] = append(parts[owner], s)
	}

	errs := make([]error, k)
	workers := cfg.workerCount(k)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := segdb.BuildIndexFile(shardDBPath(dir, i), cfg.Durable.Build, 1, parts[i]); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			// Pre-create the WAL so "manifest present" implies every shard
			// file exists — the invariant Open's ErrPartial check enforces.
			f, err := os.OpenFile(shardWALPath(dir, i), os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			errs[i] = f.Close()
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("shard: create %s: %w", dir, err)
	}
	if err := writeManifest(dir, manifest{Version: 1, Shards: k, Cuts: cuts}); err != nil {
		return nil, err
	}
	return Open(dir, cfg)
}

// Open opens an existing sharded store: it reads the manifest, verifies
// every shard's checkpoint and WAL file is present (ErrPartial
// otherwise), opens and replays every shard in parallel — any shard
// failing to recover fails the whole Open, the already-opened shards are
// closed, and nothing half-recovered is ever served — then rebuilds the
// spanner side lists from the recovered contents, cross-checking that
// every recovered segment is owned by the shard holding it.
func Open(dir string, cfg Config) (*Store, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if cfg.Shards != 0 && cfg.Shards != m.Shards {
		return nil, fmt.Errorf("shard: open %s: -shards=%d but the manifest says %d", dir, cfg.Shards, m.Shards)
	}
	k := m.Shards
	cuts := m.Cuts

	dopts := make([]segdb.DurableOptions, k)
	for i := 0; i < k; i++ {
		dopt := cfg.Durable
		if cfg.PerShard != nil {
			cfg.PerShard(i, &dopt)
		}
		if _, err := os.Stat(shardDBPath(dir, i)); err != nil {
			return nil, fmt.Errorf("%w: shard %d checkpoint %s: %v", ErrPartial, i, shardDBPath(dir, i), err)
		}
		if dopt.WALFile == nil {
			if _, err := os.Stat(shardWALPath(dir, i)); err != nil {
				return nil, fmt.Errorf("%w: shard %d wal %s: %v", ErrPartial, i, shardWALPath(dir, i), err)
			}
		}
		dopts[i] = dopt
	}

	shards := make([]*segdb.DurableIndex, k)
	errs := make([]error, k)
	workers := cfg.workerCount(k)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			d, err := segdb.OpenDurableIndex(shardDBPath(dir, i), shardWALPath(dir, i), dopts[i])
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			shards[i] = d
		}(i)
	}
	wg.Wait()
	closeAll := func() {
		for _, d := range shards {
			if d != nil {
				d.Close()
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		closeAll()
		return nil, fmt.Errorf("shard: open %s: %w", dir, err)
	}

	s := &Store{
		dir:     dir,
		cuts:    cuts,
		shards:  shards,
		workers: workers,
		spans:   make([][]segdb.Segment, len(cuts)),
	}
	for i, d := range shards {
		segs, err := d.Index().Collect()
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard: open %s: shard %d: %w", dir, i, err)
		}
		for _, sg := range segs {
			owner, hi := crossRange(cuts, sg)
			if owner != i {
				closeAll()
				return nil, fmt.Errorf("shard: open %s: shard %d holds segment %d owned by shard %d — cuts and data disagree",
					dir, i, sg.ID, owner)
			}
			for c := owner; c < hi; c++ {
				s.spans[c] = append(s.spans[c], sg)
			}
		}
	}
	for c := range s.spans {
		sortSpans(s.spans[c])
	}
	return s, nil
}

// sortSpans orders a spanner list by descending right endpoint. A query
// at x routed right of cut c reaches a spanner iff MaxX ≥ x (MinX < c ≤
// x holds for every member), so a descending scan stops at the first
// segment that falls short instead of walking the whole list.
func sortSpans(list []segdb.Segment) {
	sort.Slice(list, func(a, b int) bool { return list[a].MaxX() > list[b].MaxX() })
}

// Verify runs segdb.VerifyIndexFile (every page checksum plus the full
// structural walk) over every shard checkpoint named by the manifest.
func Verify(dir string) error {
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	for i := 0; i < m.Shards; i++ {
		if err := segdb.VerifyIndexFile(shardDBPath(dir, i)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func (cfg Config) workerCount(k int) int {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > k {
		w = k
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Shards returns K.
func (s *Store) Shards() int { return len(s.shards) }

// Cuts returns a copy of the slab boundaries.
func (s *Store) Cuts() []float64 { return append([]float64(nil), s.cuts...) }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Shard exposes one slab's DurableIndex — tests and stats use it; route
// updates through the Store or the spanner lists go stale.
func (s *Store) Shard(k int) *segdb.DurableIndex { return s.shards[k] }

// Len sums the shards' live segment counts. Ownership is disjoint, so
// this equals the logical segment count.
func (s *Store) Len() int {
	n := 0
	for _, d := range s.shards {
		n += d.Index().Len()
	}
	return n
}

// Collect concatenates every shard's live contents — the whole logical
// segment set, each segment exactly once.
func (s *Store) Collect() ([]segdb.Segment, error) {
	var out []segdb.Segment
	for i, d := range s.shards {
		segs, err := d.Index().Collect()
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		out = append(out, segs...)
	}
	return out, nil
}

// Insert durably adds a segment to its owning shard (routed by left
// endpoint) and registers it in the spanner list of every cut it
// crosses. The acknowledgement carries the owning shard's durability
// promise: the WAL record is fsync-covered before return. Like
// DurableIndex.Insert it is an upsert — re-inserting an identical
// segment keeps one copy everywhere, including the spanner lists.
func (s *Store) Insert(seg segdb.Segment) (segdb.UpdateStats, error) {
	return s.InsertContext(context.Background(), seg)
}

// InsertContext is Insert with trace attribution: a traced ctx wraps the
// routed write in a shard_update span (tagged with the owning shard),
// under which the shard's DurableIndex emits its apply/WAL spans.
func (s *Store) InsertContext(ctx context.Context, seg segdb.Segment) (segdb.UpdateStats, error) {
	owner := slabOf(s.cuts, seg.MinX())
	uctx, sp := trace.StartSpan(ctx, trace.StageShardUpdate)
	if sp != nil {
		sp.TagInt("shard", int64(owner))
		sp.Tag("op", "insert")
		defer sp.End()
	}
	st, err := s.shards[owner].InsertContext(uctx, seg)
	if err != nil {
		sp.Tag("error", err.Error())
		return st, err
	}
	s.updateSpans(seg, true)
	return st, nil
}

// Delete durably removes a segment from its owning shard and from every
// spanner list it was registered in. A segment that was not present is
// (false, nil), logging nothing, exactly like DurableIndex.Delete.
func (s *Store) Delete(seg segdb.Segment) (bool, segdb.UpdateStats, error) {
	return s.DeleteContext(context.Background(), seg)
}

// DeleteContext is Delete with trace attribution; see InsertContext.
func (s *Store) DeleteContext(ctx context.Context, seg segdb.Segment) (bool, segdb.UpdateStats, error) {
	owner := slabOf(s.cuts, seg.MinX())
	uctx, sp := trace.StartSpan(ctx, trace.StageShardUpdate)
	if sp != nil {
		sp.TagInt("shard", int64(owner))
		sp.Tag("op", "delete")
		defer sp.End()
	}
	found, st, err := s.shards[owner].DeleteContext(uctx, seg)
	if err == nil && found {
		s.updateSpans(seg, false)
	} else if err != nil {
		sp.Tag("error", err.Error())
	}
	return found, st, err
}

// updateSpans rewrites the spanner lists of the cuts seg crosses,
// copy-on-write: any entry identical to seg is dropped, and with add set
// seg is spliced in at its descending-MaxX position — so insert is an
// upsert, delete is idempotent (mirroring the shard indexes), and the
// early-exit scan order survives every mutation.
func (s *Store) updateSpans(seg segdb.Segment, add bool) {
	owner, hi := crossRange(s.cuts, seg)
	if owner == hi {
		return
	}
	s.spanMu.Lock()
	defer s.spanMu.Unlock()
	for c := owner; c < hi; c++ {
		list := s.spans[c]
		out := make([]segdb.Segment, 0, len(list)+1)
		for _, sg := range list {
			if !sameSegment(sg, seg) {
				out = append(out, sg)
			}
		}
		if add {
			pos := sort.Search(len(out), func(i int) bool { return out[i].MaxX() < seg.MaxX() })
			out = append(out, segdb.Segment{})
			copy(out[pos+1:], out[pos:])
			out[pos] = seg
		}
		s.spans[c] = out
	}
}

// sameSegment is segment identity — id plus exact endpoints, the same
// notion Index.Delete matches on.
func sameSegment(a, b segdb.Segment) bool {
	return a.ID == b.ID && a.A == b.A && a.B == b.B
}

// spanners returns the current spanner list of cut c, ordered by
// descending MaxX; the returned slice is immutable (copy-on-write
// mutations never touch published arrays), so callers may scan it
// without holding any lock, stopping at the first entry whose MaxX
// falls short of the query's x.
func (s *Store) spanners(c int) []segdb.Segment {
	s.spanMu.RLock()
	list := s.spans[c]
	s.spanMu.RUnlock()
	return list
}

// Compact checkpoints every shard in parallel (bounded by Workers): each
// shard's live pages are copied into its checkpoint file through the
// shadow commit and its WAL rotates. Shards succeed or fail independently; the
// error joins every failing shard's, and a failed shard keeps serving
// from its last good checkpoint + log.
func (s *Store) Compact() error {
	errs := make([]error, len(s.shards))
	sem := make(chan struct{}, s.workers)
	var wg sync.WaitGroup
	for i, d := range s.shards {
		wg.Add(1)
		go func(i int, d *segdb.DurableIndex) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := d.Compact(); err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// LastCompactStall reports the longest time any slab's most recent
// compaction held that slab's update lock: the worst stall a writer
// could have met, whichever slab it routed to.
func (s *Store) LastCompactStall() time.Duration {
	var worst time.Duration
	for _, d := range s.shards {
		worst = max(worst, d.LastCompactStall())
	}
	return worst
}

// CompactUnits exposes every slab as its own segdb.CompactUnit so the
// compaction governor can stagger slab checkpoints — compacting only
// the slabs whose WAL crossed the thresholds, a bounded number at a
// time — instead of rotating all K at once through Compact.
func (s *Store) CompactUnits() []segdb.CompactUnit {
	units := make([]segdb.CompactUnit, len(s.shards))
	for i, d := range s.shards {
		units[i] = d
	}
	return units
}

// Workers returns the store's per-shard parallelism bound — the same
// bound Compact staggers under, exported so the governor can match it.
func (s *Store) Workers() int { return s.workers }

// Close closes every shard, returning the join of their errors.
func (s *Store) Close() error {
	errs := make([]error, len(s.shards))
	for i, d := range s.shards {
		if err := d.Close(); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return errors.Join(errs...)
}

// WALStats sums the shards' log stats — the aggregate the serving
// layer's WAL gauges show for a sharded store.
func (s *Store) WALStats() (records, size, durable int64) {
	for _, d := range s.shards {
		r, sz, du := d.WALStats()
		records += r
		size += sz
		durable += du
	}
	return records, size, durable
}

// WALWedged reports the first shard's latched log failure, or nil while
// every shard accepts writes.
func (s *Store) WALWedged() error {
	for i, d := range s.shards {
		if err := d.WALWedged(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Status is one shard's row on /statsz and /metricsz: its slab (open
// bounds omitted), contents, spanner registrations on its left cut, WAL
// gauges and buffer-pool stats.
type Status struct {
	Shard      int           `json:"shard"`
	CutLo      *float64      `json:"cut_lo,omitempty"` // nil: unbounded left (shard 0)
	CutHi      *float64      `json:"cut_hi,omitempty"` // nil: unbounded right (shard K-1)
	Segments   int           `json:"segments"`
	Spanners   int           `json:"spanners"` // spanner-list entries on this shard's left cut
	WALRecords int64         `json:"wal_records"`
	WALSize    int64         `json:"wal_size_bytes"`
	WALDurable int64         `json:"wal_durable_bytes"`
	WALWedged  bool          `json:"wal_wedged,omitempty"`
	PagesInUse int           `json:"pages_in_use"`
	PageSize   int           `json:"page_size"`
	IO         segdb.IOStats `json:"io"`
	HitRatio   float64       `json:"hit_ratio"`
}

// ShardStatus reports every shard's row; the serving layer exposes them
// on /statsz (JSON) and /metricsz (one labelled sample per shard).
func (s *Store) ShardStatus() []Status {
	s.spanMu.RLock()
	spanCounts := make([]int, len(s.spans))
	for i, list := range s.spans {
		spanCounts[i] = len(list)
	}
	s.spanMu.RUnlock()

	out := make([]Status, len(s.shards))
	for k, d := range s.shards {
		mem := d.Store()
		io := mem.Stats()
		rec, size, durable := d.WALStats()
		st := Status{
			Shard:      k,
			Segments:   d.Index().Len(),
			WALRecords: rec,
			WALSize:    size,
			WALDurable: durable,
			WALWedged:  d.WALWedged() != nil,
			PagesInUse: mem.PagesInUse(),
			PageSize:   mem.PageSize(),
			IO:         io,
			HitRatio:   io.HitRatio(),
		}
		if k > 0 {
			lo := s.cuts[k-1]
			st.CutLo = &lo
			st.Spanners = spanCounts[k-1]
		}
		if k < len(s.cuts) {
			hi := s.cuts[k]
			st.CutHi = &hi
		}
		out[k] = st
	}
	return out
}
