// Package segdb is a secondary-storage index library for segment
// databases: sets of N non-crossing but possibly touching (NCT) plane
// segments, as studied by E. Bertino, B. Catania and B. Shidlovsky,
// "Towards Optimal Indexing for Segment Databases" (EDBT 1998). It
// implements both structures the paper proposes for generalized
// vertical-segment (VS) queries — report every stored segment intersected
// by a query segment, ray or line of fixed direction — together with the
// substrates they stand on (external priority search trees for line-based
// segments, external interval trees, multislab segment trees with
// fractional cascading) and the baselines they are evaluated against.
//
// # Cost model
//
// All structures run on a simulated disk (a Store) that counts block
// transfers, so measured costs are I/O-model costs. Writing n = N/B for
// the blocks needed to store the data and t = T/B for the blocks needed
// to report a query's T answers:
//
//   - Solution 1 (Section 3): O(n) blocks, queries in
//     O(log n ·(log_B n) + t), fully dynamic via BB[α] rebuilding.
//   - Solution 2 (Section 4): O(n log2 B) blocks, queries in
//     O(log_B n ·(log_B n + log2 B) + t) with fractional cascading,
//     semi-dynamic (insertions).
//
// # Quick start
//
//	st := segdb.NewMemStore(64, 128)          // B = 64 segments per block
//	ix, err := segdb.BuildSolution2(st, segdb.Options{}, segments)
//	...
//	hits, err := segdb.CollectQuery(ix, segdb.VSeg(x, yLo, yHi))
//	// or stream the answers:
//	_, err = ix.Query(segdb.VSeg(x, yLo, yHi), func(s segdb.Segment) { ... })
//
// Queries of any other fixed direction are supported by rotating the data
// once with RotationAligning and rotating each query with
// Rotation.ApplyQuery (paper, footnote 1).
//
// # Serving
//
// A persisted index (CreateSolution1/2 + Save, or the segdb build tool)
// reopens with Open or OpenIndexFile; wrap it in Synchronized for
// concurrent queries (QueryContext adds per-query cancellation) and
// serve it with internal/server via the segdbd daemon, which fronts the
// index with admission control and live metrics.
package segdb

import (
	"fmt"

	"segdb/internal/baseline"
	"segdb/internal/geom"
	"segdb/internal/multidir"
	"segdb/internal/pager"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
)

// Point is a point in the plane.
type Point = geom.Point

// Segment is a plane segment with an application-assigned unique ID.
type Segment = geom.Segment

// Query is a generalized vertical query segment (segment, ray or line).
type Query = geom.VQuery

// Rotation maps data into the frame where queries are vertical.
type Rotation = geom.Rotation

// Index is a VS-query index over an NCT segment database. Two
// implementations of the paper's contribution exist, Solution 1 (Section 3
// / Theorem 1) and Solution 2 (Section 4 / Theorem 2), plus the baselines
// the experiments compare them against.
type Index interface {
	// Query reports every stored segment intersected by q, exactly once.
	Query(q Query, emit func(Segment)) (QueryStats, error)
	// Insert adds a segment; it must keep the database non-crossing.
	Insert(s Segment) error
	// Delete removes the segment with s's identity and geometry. The
	// semi-dynamic Solution 2 returns ErrUnsupported.
	Delete(s Segment) (bool, error)
	// Len returns the number of stored segments.
	Len() int
	// Collect returns every stored segment.
	Collect() ([]Segment, error)
	// Drop frees all pages.
	Drop() error
}

// QueryStats describes the work a single query performed. The structural
// counters are filled by the index implementations themselves; the I/O
// attribution fields are filled by the synchronization layer above
// (SyncIndex / QueryBatchContext) from pager shard-counter windows,
// because the indexes share one store and cannot tell their own reads
// apart. Window attribution is exact for non-overlapping queries; see the
// pager package comment for its semantics under concurrency.
type QueryStats struct {
	FirstLevelNodes int // first-level nodes visited
	Reported        int // segments reported (the query's T)
	GListSearches   int // Solution 2: multislab lists positioned from the root
	GBridgeJumps    int // Solution 2: lists positioned through bridges
	GFallbacks      int // Solution 2: failed bridge navigations

	// PagesRead and PoolHits are the physical page reads and buffer-pool
	// hits observed during the query's window, when the caller attributes
	// I/O (zero otherwise). PagesRead is the query's cost in the paper's
	// I/O model.
	PagesRead int64
	PoolHits  int64

	// MissNanos is the wall time the query's window spent filling pool
	// misses (device reads plus singleflight waits), when the caller
	// attributes I/O. It powers the pager_miss span of a traced query;
	// like PagesRead it is a window measure, exact only without overlap.
	MissNanos int64
}

// Store is the simulated secondary storage all structures live on.
type Store = pager.Store

// IOStats are the store's block-transfer counters.
type IOStats = pager.Stats

// ErrUnsupported is returned by operations outside a structure's model
// (deletion on the semi-dynamic Solution 2 and on the scan baseline).
var ErrUnsupported = sol2.ErrUnsupported

// ErrInvalidSegment marks a segment the index structures reject (zero ID
// or degenerate geometry); match with errors.Is.
var ErrInvalidSegment = geom.ErrInvalidSegment

// NewSegment constructs a segment from raw coordinates. The ID must be
// unique and non-zero within one index.
func NewSegment(id uint64, x1, y1, x2, y2 float64) Segment {
	return geom.Seg(id, x1, y1, x2, y2)
}

// VSeg returns the vertical segment query x = x0, yLo ≤ y ≤ yHi.
func VSeg(x0, yLo, yHi float64) Query { return geom.VSeg(x0, yLo, yHi) }

// VRayUp returns the upward ray query x = x0, y ≥ yLo.
func VRayUp(x0, yLo float64) Query { return geom.VRayUp(x0, yLo) }

// VRayDown returns the downward ray query x = x0, y ≤ yHi.
func VRayDown(x0, yHi float64) Query { return geom.VRayDown(x0, yHi) }

// VLine returns the vertical line (stabbing) query x = x0.
func VLine(x0 float64) Query { return geom.VLine(x0) }

// RotationAligning returns the rotation mapping direction dir to vertical,
// for querying with an arbitrary fixed angular coefficient.
func RotationAligning(dir Point) Rotation { return geom.RotationAligning(dir) }

// ValidateNCT checks that a segment set is non-crossing (touching
// allowed): the validity model of every index in this package.
func ValidateNCT(segs []Segment) error { return geom.ValidateNCT(segs) }

// PlanarPiece is one output fragment of Planarize.
type PlanarPiece = geom.PlanarPiece

// Planarize repairs an arbitrary (possibly crossing) segment set into an
// NCT set covering the same points: crossings and T-junctions become
// shared vertices, collinear overlaps collapse. It is the ingestion step
// raw GIS data needs before indexing. Pieces get fresh IDs above idBase
// and remember their source segment.
func Planarize(segs []Segment, idBase uint64) []PlanarPiece {
	return geom.Planarize(segs, idBase)
}

// PageSizeFor returns the page size in bytes used for a block capacity of
// B segments: enough for B segment records plus node bookkeeping.
func PageSizeFor(B int) int { return 64 + 48*B }

// NewMemStore creates an in-memory store sized for blocks of B segments,
// with an LRU pool of cachePages pages (0 = every read is a physical
// read, the strict I/O model).
func NewMemStore(B, cachePages int) *Store {
	return pager.MustOpenMem(PageSizeFor(B), cachePages)
}

// OpenFileStore creates or opens a file-backed store sized for blocks of
// B segments.
func OpenFileStore(path string, B, cachePages int) (*Store, error) {
	dev, err := pager.OpenFileDevice(path, PageSizeFor(B))
	if err != nil {
		return nil, err
	}
	return pager.Open(dev, PageSizeFor(B), cachePages)
}

// Options configures index construction. The zero value selects the
// paper's defaults for the store's block size.
type Options struct {
	// B is the block capacity in segments; 0 derives it from the store's
	// page size.
	B int
	// D is Solution 2's fractional-cascading bridge spacing (≥ 2); 0
	// selects 4.
	D int
	// PlainPST makes Solution 1 use the binary external PST of Section 2
	// (Lemma 2) instead of the accelerated variant — the ablation of
	// EXPERIMENTS.md.
	PlainPST bool
	// Alpha is Solution 1's BB[α] balance parameter; 0 selects 0.25.
	Alpha float64
	// NoCascade disables Solution 2's fractional cascading (the Lemma 4
	// configuration).
	NoCascade bool
}

// sol1Config and sol2Config map the public Options to each structure's
// configuration; buildOptions is the inverse.
func (o Options) sol1Config() sol1.Config {
	return sol1.Config{B: o.B, Plain: o.PlainPST, Alpha: o.Alpha}
}

func (o Options) sol2Config() sol2.Config { return sol2.Config{B: o.B, D: o.D} }

// buildOptions recovers the solution number and the Options that rebuild
// ix with its own configuration; sol is 0 for the baselines.
func buildOptions(ix Index) (sol int, opt Options) {
	switch v := ix.(type) {
	case solution1:
		cfg := v.Config()
		return 1, Options{B: cfg.B, PlainPST: cfg.Plain, Alpha: cfg.Alpha}
	case solution2:
		cfg := v.Config()
		return 2, Options{B: cfg.B, D: cfg.D, NoCascade: !v.UseBridges}
	}
	return 0, Options{}
}

// solution1 adapts sol1.Index to the Index interface.
type solution1 struct{ *sol1.Index }

func (s solution1) Query(q Query, emit func(Segment)) (QueryStats, error) {
	st, err := s.Index.Query(q, emit)
	return QueryStats{FirstLevelNodes: st.FirstLevelNodes, Reported: st.Reported}, err
}

// DescribeString returns a human-readable structural summary (full
// traversal; a diagnostic).
func (s solution1) DescribeString() (string, error) { return describeString(s.Describe()) }

// solution2 adapts sol2.Index to the Index interface.
type solution2 struct{ *sol2.Index }

func (s solution2) Query(q Query, emit func(Segment)) (QueryStats, error) {
	st, err := s.Index.Query(q, emit)
	return QueryStats{
		FirstLevelNodes: st.FirstLevelNodes,
		Reported:        st.Reported,
		GListSearches:   st.G.ListsSearched,
		GBridgeJumps:    st.G.BridgeJumps,
		GFallbacks:      st.G.Fallbacks,
	}, err
}

// DescribeString returns a human-readable structural summary (full
// traversal; a diagnostic).
func (s solution2) DescribeString() (string, error) { return describeString(s.Describe()) }

func describeString(d fmt.Stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return d.String(), nil
}

// BuildSolution1 bulk-loads the paper's first structure (Section 3,
// Theorem 1): linear space, O(log n · log_B n + t) queries, fully
// dynamic.
func BuildSolution1(st *Store, opt Options, segs []Segment) (Index, error) {
	ix, err := sol1.Build(st, opt.sol1Config(), segs)
	if err != nil {
		return nil, err
	}
	return solution1{ix}, nil
}

// BuildSolution2 bulk-loads the paper's improved structure (Section 4,
// Theorem 2): O(n log2 B) space, O(log_B n ·(log_B n + log2 B) + t)
// queries, semi-dynamic (insertions only).
func BuildSolution2(st *Store, opt Options, segs []Segment) (Index, error) {
	ix, err := sol2.Build(st, opt.sol2Config(), segs)
	if err != nil {
		return nil, err
	}
	ix.UseBridges = !opt.NoCascade
	return solution2{ix}, nil
}

// scanBaseline adapts baseline.Scan to the Index interface.
type scanBaseline struct{ *baseline.Scan }

func (s scanBaseline) Query(q Query, emit func(Segment)) (QueryStats, error) {
	var st QueryStats
	err := s.Scan.Query(q, func(sg Segment) {
		st.Reported++
		emit(sg)
	})
	return st, err
}

// Delete implements Index; the scan baseline does not support deletion.
func (s scanBaseline) Delete(Segment) (bool, error) { return false, ErrUnsupported }

// NewScanBaseline builds the full-scan comparator: the segments stored as
// a packed page chain.
func NewScanBaseline(st *Store, segs []Segment) (Index, error) {
	sc, err := baseline.NewScan(st, segs)
	if err != nil {
		return nil, err
	}
	return scanBaseline{sc}, nil
}

// stabFilterBaseline adapts baseline.StabFilter to the Index interface.
type stabFilterBaseline struct {
	*baseline.StabFilter
	// touched is the t_line of the most recent query: every segment
	// crossing the query's vertical line, hit or not.
	touched int
}

func (s *stabFilterBaseline) Query(q Query, emit func(Segment)) (QueryStats, error) {
	var st QueryStats
	touched, err := s.StabFilter.Query(q, func(sg Segment) {
		st.Reported++
		emit(sg)
	})
	s.touched = touched
	return st, err
}

// Touched returns the t_line of the most recent query.
func (s *stabFilterBaseline) Touched() int { return s.touched }

// Collect is not tracked by the stab-filter baseline.
func (s *stabFilterBaseline) Collect() ([]Segment, error) { return nil, ErrUnsupported }

// Drop is not tracked by the stab-filter baseline.
func (s *stabFilterBaseline) Drop() error { return ErrUnsupported }

// NewStabFilterBaseline builds the stab-and-filter comparator: an
// interval tree over x-projections plus a y filter — the best approach
// available from pre-paper work, whose cost scales with the number of
// segments crossing the query's LINE rather than its segment.
func NewStabFilterBaseline(st *Store, b int, segs []Segment) (Index, error) {
	f, err := baseline.NewStabFilter(st, b, segs)
	if err != nil {
		return nil, err
	}
	return &stabFilterBaseline{StabFilter: f}, nil
}

// MultiIndex answers intersection queries along a fixed set of registered
// directions — one rotated Solution-2 instance per direction. It is the
// practical form of the paper's stated future work (Section 5: arbitrary
// angular coefficients); space and insert cost scale with the direction
// count.
type MultiIndex = multidir.Index

// BuildMultiDirection builds a MultiIndex over the NCT segment set for
// the given query directions (each a non-zero vector; a direction and its
// negation are the same).
func BuildMultiDirection(st *Store, opt Options, dirs []Point, segs []Segment) (*MultiIndex, error) {
	return multidir.Build(st, opt.sol2Config(), dirs, segs)
}

// compacter is the optional interface of indexes that can rebuild
// themselves balanced and tightly packed. *SyncIndex implements it by
// delegating under its exclusive lock.
type compacter interface{ Compact() error }

// Compact rebuilds an index balanced and tightly packed, reclaiming the
// slack deletions leave behind. Only Solution 1 supports it (Solution 2
// never deletes, so it never accumulates slack); other indexes return
// ErrUnsupported. A *SyncIndex — even a nested one — compacts its wrapped
// index under the exclusive lock, releasing it on every path.
func Compact(ix Index) error {
	if c, ok := ix.(compacter); ok {
		return c.Compact()
	}
	return ErrUnsupported
}

// CollectQuery runs a query on any Index and returns the results as a
// slice.
func CollectQuery(ix Index, q Query) ([]Segment, error) {
	var out []Segment
	_, err := ix.Query(q, func(s Segment) { out = append(out, s) })
	return out, err
}

// FilterHits returns the reference answer by linear filtering; tests and
// examples use it as ground truth.
func FilterHits(q Query, segs []Segment) []Segment { return q.FilterHits(segs) }
