package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"segdb"
	"segdb/internal/repl"
	"segdb/internal/shard"
	"segdb/internal/trace"
)

// Index is the read surface the server serves: cancellable single
// queries, batches with the partial-results contract, and the live
// segment count. *segdb.SyncIndex satisfies it for a single index,
// *shard.Store for a sharded store — the handlers cannot tell them
// apart, which is the point.
type Index interface {
	QueryContext(ctx context.Context, q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error)
	QueryBatchContext(ctx context.Context, queries []segdb.Query, parallelism int) []segdb.BatchResult
	Len() int
}

var (
	_ Index = (*segdb.SyncIndex)(nil)
	_ Index = (*shard.Store)(nil)
)

// ShardStatuser is the optional interface of a sharded index: its
// per-shard rows ride /statsz and /metricsz.
type ShardStatuser interface {
	ShardStatus() []shard.Status
}

// Updater is the write path a read-write server serves: durable inserts
// and deletes with per-update I/O attribution, plus the WAL's state
// (counters and the wedged gauge) for /statsz. *segdb.DurableIndex
// satisfies it; a nil Updater keeps the server read-only (update
// endpoints answer 501).
type Updater interface {
	Insert(seg segdb.Segment) (segdb.UpdateStats, error)
	Delete(seg segdb.Segment) (bool, segdb.UpdateStats, error)
	WALStats() (records, size, durable int64)
	WALWedged() error
}

var _ Updater = (*segdb.DurableIndex)(nil)

// contextUpdater is the optional extension of Updater whose updates
// accept a context for trace attribution: a traced request's insert or
// delete carries its span through the shard routing, the live-index
// apply and the WAL group commit. Both *segdb.DurableIndex and
// *shard.Store implement it; the exported Updater interface is
// unchanged, so third-party updaters keep working untraced.
type contextUpdater interface {
	InsertContext(ctx context.Context, seg segdb.Segment) (segdb.UpdateStats, error)
	DeleteContext(ctx context.Context, seg segdb.Segment) (bool, segdb.UpdateStats, error)
}

var (
	_ contextUpdater = (*segdb.DurableIndex)(nil)
	_ contextUpdater = (*shard.Store)(nil)
)

// Compacter is the optional checkpoint hook: an Updater that also
// compacts gets POST /v1/admin/compact, the online log-rotation trigger.
type Compacter interface {
	Compact() error
}

// compactStaller is the optional extension of a Compacter that knows how
// long its last compaction held the update lock. *segdb.DurableIndex
// reports its own; *shard.Store the longest of its slabs'.
type compactStaller interface {
	LastCompactStall() time.Duration
}

var (
	_ compactStaller = (*segdb.DurableIndex)(nil)
	_ compactStaller = (*shard.Store)(nil)
)

// Follower is what the serving layer needs from a read replica: its
// replication status for /statsz and /metricsz, and the lag health
// check for deep /healthz. *repl.Follower satisfies it.
type Follower interface {
	Status() repl.Status
	Healthy(maxLag time.Duration) error
}

// Config tunes a Server. The zero value selects sane defaults.
type Config struct {
	// MaxInflight bounds concurrently admitted queries; excess load is
	// shed with 429. 0 selects 64.
	MaxInflight int
	// DefaultTimeout is the per-request deadline when the client sets
	// none; a request's timeout_ms can only lower it. 0 selects 5s.
	DefaultTimeout time.Duration
	// RetryAfter is the backoff hint sent with shed responses. 0
	// selects 1s.
	RetryAfter time.Duration
	// MaxBatch bounds the queries of one batch request. 0 selects 1024.
	MaxBatch int
	// BatchParallelism bounds QueryBatch workers per batch request. 0
	// selects 4. A batch occupies one admission slot regardless.
	BatchParallelism int
	// DeepProbeX is the x of the stabbing query /healthz?deep=1 runs as
	// its deep check. The stab traverses the index's root spine and reads
	// real (checksummed) pages, so page corruption or a dying disk turns
	// the health endpoint red instead of only failing user queries.
	DeepProbeX float64
	// DeepTimeout bounds the deep check. 0 selects 2s.
	DeepTimeout time.Duration
	// SlowLatency is the slow-query log's latency threshold: admitted
	// requests running longer are logged. 0 selects 250ms; negative
	// disables the latency trigger.
	SlowLatency time.Duration
	// SlowIOPages is the slow-query log's I/O threshold: requests whose
	// queries read more physical pages are logged. 0 disables the I/O
	// trigger (latency still applies).
	SlowIOPages int64
	// SlowLogSize is the slow-query ring capacity. 0 selects 128.
	SlowLogSize int
	// SlowSink, if set, receives every slow entry synchronously after it
	// is ringed — segdbd points it at a buffered JSONL writer. Keep it
	// fast; it runs on the request goroutine.
	SlowSink func(SlowEntry)
	// SlowCompact is the compaction latency budget: compactions observed
	// through ObserveCompaction that run at least this long are slow-
	// logged. 0 selects 1s; negative disables.
	SlowCompact time.Duration
	// Updater, if set, enables the write path: POST /v1/insert and
	// /v1/delete apply durable updates through it. Nil keeps the server
	// read-only.
	Updater Updater
	// MaxInflightUpdates bounds concurrently admitted updates — a
	// separate admission class from queries, so a write burst cannot
	// starve reads of admission slots (and vice versa). 0 selects 16.
	MaxInflightUpdates int
	// Repl, if set, serves the replication endpoints (snapshot + WAL
	// shipping) and the leader's per-follower lag gauges — leader mode.
	Repl *repl.Leader
	// Follower, if set, marks the server a read replica: writes answer
	// 503 with the leader's URL in X-Segdb-Leader, replication status
	// rides /statsz and /metricsz, and deep /healthz enforces
	// MaxReplicaLag.
	Follower Follower
	// MaxReplicaLag is how stale a follower may run before deep /healthz
	// reports it unhealthy; <= 0 disables the lag check.
	MaxReplicaLag time.Duration
	// TraceSample is request tracing's head-sampling probability in
	// (0,1]; 0 disables tracing entirely (no spans, empty /tracez, no
	// stage histograms). Regardless of the rate, traces slower than
	// SlowLatency and requests arriving with a sampled traceparent are
	// always kept.
	TraceSample float64
	// TraceRing bounds the kept-trace ring behind /tracez. 0 selects 64.
	TraceRing int
	// TraceSink, if set, receives every kept trace synchronously after it
	// is ringed — segdbd points it at a buffered JSONL writer. Keep it
	// fast; it runs on the request goroutine.
	TraceSink func(trace.TraceSnapshot)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = 4
	}
	if c.DeepTimeout <= 0 {
		c.DeepTimeout = 2 * time.Second
	}
	if c.SlowLatency == 0 {
		c.SlowLatency = 250 * time.Millisecond
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 128
	}
	if c.MaxInflightUpdates <= 0 {
		c.MaxInflightUpdates = 16
	}
	if c.SlowCompact == 0 {
		c.SlowCompact = time.Second
	}
	return c
}

// Server serves VS queries over an index. The index is wrapped in
// segdb.SyncIndex, so queries run concurrently under its shared lock on
// the sharded store; admission bounds that concurrency explicitly.
type Server struct {
	state    atomic.Pointer[serveState] // the served index + store, swappable
	cfg      Config
	gate     *Gate
	wgate    *Gate // write admission; nil on a read-only server
	metrics  *Metrics
	slow     *SlowLog
	tracer   *trace.Tracer // nil: tracing disabled
	compacts CompactStats

	// What the Updater can do beyond the interface, resolved once in New
	// so no request pays a type assertion: its context-aware (traced)
	// update methods, or the plain ones behind the same signature, and
	// its checkpoint hook (nil: no /v1/admin/compact).
	insert    func(context.Context, segdb.Segment) (segdb.UpdateStats, error)
	remove    func(context.Context, segdb.Segment) (bool, segdb.UpdateStats, error)
	compacter Compacter
	staller   compactStaller
	// maxBody bounds a request body, so MaxBatch limits what is decoded
	// into memory and not only what is run.
	maxBody int64
}

// maxQueryWireBytes is generous for one query or one segment on the
// wire (three or five float64s with their keys are under 200 bytes);
// the body bound is one of these per allowed batch entry plus a page
// for the envelope.
const maxQueryWireBytes = 256

// serveState pairs the served index with its store so a swap replaces
// both atomically — a snapshot can never attribute one index's queries
// to another index's store.
type serveState struct {
	ix     Index
	st     *segdb.Store
	shards ShardStatuser // ix's per-shard rows; nil for a single index
}

func newServeState(ix Index, st *segdb.Store) *serveState {
	ss, _ := ix.(ShardStatuser)
	return &serveState{ix: ix, st: st, shards: ss}
}

// New assembles a server over a synchronized index. st may be nil (no
// store-level stats in /statsz); passing the store the index lives on
// adds shard stats and the pool hit ratio. For per-query I/O attribution
// (the pages-read histograms and the slow log's I/O column), wrap the
// index with segdb.SynchronizedOn so its QueryStats carry I/O windows.
func New(ix Index, st *segdb.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		gate:    NewGate(cfg.MaxInflight),
		metrics: NewMetrics(),
		slow:    NewSlowLog(cfg.SlowLogSize, cfg.SlowLatency, cfg.SlowIOPages, cfg.SlowSink),
		maxBody: 4096 + int64(cfg.MaxBatch)*maxQueryWireBytes,
	}
	s.state.Store(newServeState(ix, st))
	if u := cfg.Updater; u != nil {
		s.wgate = NewGate(cfg.MaxInflightUpdates)
		s.compacter, _ = u.(Compacter)
		s.staller, _ = u.(compactStaller)
		// A context-aware updater threads the trace through shard routing,
		// apply and WAL commit; anything else runs untraced (the request's
		// root span still measures it).
		if cu, ok := u.(contextUpdater); ok {
			s.insert, s.remove = cu.InsertContext, cu.DeleteContext
		} else {
			s.insert = func(_ context.Context, seg segdb.Segment) (segdb.UpdateStats, error) { return u.Insert(seg) }
			s.remove = func(_ context.Context, seg segdb.Segment) (bool, segdb.UpdateStats, error) { return u.Delete(seg) }
		}
	}
	s.tracer = trace.New(trace.Config{
		SampleRate:  cfg.TraceSample,
		SlowLatency: cfg.SlowLatency,
		RingSize:    cfg.TraceRing,
		Sink:        cfg.TraceSink,
		Observe:     s.metrics.ObserveStage,
	})
	if cfg.Repl != nil {
		// Replication traffic shares the request tracer: followers' snapshot
		// and WAL polls land in the same ring and stage histograms.
		cfg.Repl.SetTracer(s.tracer)
	}
	return s
}

// cur returns the currently served index/store pair. A handler reads it
// once and uses that pair throughout, so a concurrent swap never mixes
// two indexes inside one request.
func (s *Server) cur() *serveState { return s.state.Load() }

// SwapIndex atomically repoints the server at a new index/store pair —
// how a follower publishes a re-bootstrapped index without a restart.
// Requests already running keep the old pair; the caller owns retiring
// it (repl.Follower holds superseded indexes through a grace window
// longer than any request deadline before closing them).
func (s *Server) SwapIndex(ix Index, st *segdb.Store) {
	s.state.Store(newServeState(ix, st))
}

// Gate exposes the admission gate, e.g. for tests.
func (s *Server) Gate() *Gate { return s.gate }

// SlowLog exposes the slow-query ring, e.g. for tests.
func (s *Server) SlowLog() *SlowLog { return s.slow }

// Snapshot returns the same document /statsz serves, programmatically.
// On a read-write server it carries the write-admission gate and the
// WAL's records/size/durable watermark (plus the wedged gauge) next to
// the read-path registry; replication adds the leader's follower-lag
// table or the follower's position, whichever role this server runs.
func (s *Server) Snapshot() Snapshot {
	cur := s.cur()
	snap := SnapshotFrom(s.metrics, s.gate, cur.st, cur.ix.Len())
	if cur.shards != nil {
		snap.Shards = cur.shards.ShardStatus()
		if cur.st == nil {
			// A sharded store has no single pager; synthesize the store
			// section from the per-shard rows so dashboards keep working.
			snap.Store = storeFromShards(snap.Shards)
		}
	}
	if s.wgate != nil {
		ws := s.wgate.Stats()
		snap.WriteAdmission = &ws
		records, size, durable := s.cfg.Updater.WALStats()
		snap.WAL = &WALSnapshot{Records: records, SizeBytes: size, DurableBytes: durable}
		if werr := s.cfg.Updater.WALWedged(); werr != nil {
			snap.WAL.Wedged = true
			snap.WAL.WedgedError = werr.Error()
		}
	}
	if s.compacter != nil {
		cs := s.compacts.Snapshot()
		snap.Compact = &cs
	}
	if s.cfg.Repl != nil {
		ls := s.cfg.Repl.Stats()
		snap.ReplLeader = &ls
	}
	if s.cfg.Follower != nil {
		fs := s.cfg.Follower.Status()
		snap.Repl = &fs
	}
	return snap
}

// BeginDrain stops admitting queries and updates; in-flight ones keep
// their slots.
func (s *Server) BeginDrain() {
	s.gate.StartDrain()
	if s.wgate != nil {
		s.wgate.StartDrain()
	}
}

// Drain stops admitting queries and updates and waits until the
// in-flight ones have finished, or ctx expires. It is the programmatic
// half of graceful shutdown; pair it with http.Server.Shutdown, which
// drains connections.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	gates := []*Gate{s.gate}
	if s.wgate != nil {
		gates = append(gates, s.wgate)
	}
	for _, g := range gates {
		select {
		case <-g.Drained():
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %d requests still in flight: %w",
				g.Inflight(), ctx.Err())
		}
	}
	return nil
}

// Handler returns the HTTP surface:
//
//	POST /v1/query          single or batch VS query (JSON)
//	POST /v1/insert         durable insert (501 read-only; 503 + leader hint on a replica)
//	POST /v1/delete         durable delete (same)
//	POST /v1/admin/compact  checkpoint + WAL rotation (leader mode)
//	GET  /v1/repl/snapshot  checkpoint download for followers (leader mode)
//	GET  /v1/repl/wal       committed-frame shipping for followers (leader mode)
//	GET  /statsz            metrics snapshot (JSON); ?slow=1 adds the slow-query ring
//	GET  /metricsz          the same registry in Prometheus text format
//	GET  /tracez            sampled request traces (JSON), newest first
//	GET  /healthz           liveness; 503 once draining; ?deep=1 adds probe + replica lag
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/insert", func(w http.ResponseWriter, r *http.Request) {
		s.handleUpdate(w, r, EPInsert)
	})
	mux.HandleFunc("/v1/delete", func(w http.ResponseWriter, r *http.Request) {
		s.handleUpdate(w, r, EPDelete)
	})
	if s.cfg.Repl != nil {
		mux.HandleFunc(repl.SnapshotPath, s.cfg.Repl.ServeSnapshot)
		mux.HandleFunc(repl.WALPath, s.cfg.Repl.ServeWAL)
	}
	if s.compacter != nil {
		mux.HandleFunc("/v1/admin/compact", s.handleCompact)
	}
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleTracez serves the kept-trace ring: the sampling configuration,
// keep counters, and every retained trace's span tree, newest first.
// With tracing disabled the document is well-formed and empty.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	s.metrics.OnRequest(EPStatsz)
	writeJSON(w, http.StatusOK, s.tracer.Snapshot())
}

// handleCompact checkpoints the served index online: the live state is
// rebuilt into the index file and the WAL rotates. On a leader this
// advances the replication epoch — tailing followers get 410 and
// re-snapshot.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	err := s.compacter.Compact()
	s.ObserveCompaction(false, time.Since(start), err)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "compact: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"elapsed_ms": float64(time.Since(start)) / 1e6,
	})
}

// QuerySpec is one query on the wire. Omitted bounds are open: no ylo
// and no yhi is a vertical-line (stabbing) query, one open side is a
// ray. JSON has no ±Inf, so open bounds are spelled by omission.
type QuerySpec struct {
	X   float64  `json:"x"`
	YLo *float64 `json:"ylo,omitempty"`
	YHi *float64 `json:"yhi,omitempty"`
}

// Query converts the wire form to the geometric query.
func (q QuerySpec) Query() segdb.Query {
	lo, hi := math.Inf(-1), math.Inf(1)
	if q.YLo != nil {
		lo = *q.YLo
	}
	if q.YHi != nil {
		hi = *q.YHi
	}
	return segdb.VSeg(q.X, lo, hi)
}

// QueryRequest is the /v1/query body: either the single-query fields
// inline, or Queries for the batch form (routed through segdb.QueryBatch
// under one admission slot).
type QueryRequest struct {
	QuerySpec
	Queries     []QuerySpec `json:"queries,omitempty"`
	Parallelism int         `json:"parallelism,omitempty"`
	TimeoutMS   int         `json:"timeout_ms,omitempty"`
	// OmitHits returns only counts — the load-generator mode that keeps
	// response encoding off the measured path.
	OmitHits bool `json:"omit_hits,omitempty"`
}

// WireSegment is one reported segment on the wire.
type WireSegment struct {
	ID uint64  `json:"id"`
	AX float64 `json:"ax"`
	AY float64 `json:"ay"`
	BX float64 `json:"bx"`
	BY float64 `json:"by"`
}

func toWire(segs []segdb.Segment) []WireSegment {
	out := make([]WireSegment, len(segs))
	for i, sg := range segs {
		out[i] = WireSegment{ID: sg.ID, AX: sg.A.X, AY: sg.A.Y, BX: sg.B.X, BY: sg.B.Y}
	}
	return out
}

// QueryResult is one query's answer.
type QueryResult struct {
	Count int           `json:"count"`
	Hits  []WireSegment `json:"hits,omitempty"`
	Error string        `json:"error,omitempty"`
}

// QueryResponse is the /v1/query response: Result for the single form,
// Results (index-aligned with the request's queries) for the batch form.
type QueryResponse struct {
	QueryResult
	Results   []QueryResult `json:"results,omitempty"`
	ElapsedMS float64       `json:"elapsed_ms"`
}

// decode and admit are the request preamble the query and update
// handlers share; the handler classifies and counts the request in
// between, because admission and shed accounting need the endpoint and
// the endpoint is only known from the decoded body.
//
// decode starts the request trace before the body is read, so parse
// time is on it, and echoes the traceparent on every traced response,
// errors included — headers precede any body write. The caller finishes
// root whatever ok says. The body is read through http.MaxBytesReader:
// an oversized one answers 413 having decoded at most maxBody bytes.
// Unknown fields and trailing data are 400. A body that does not decode
// cannot be attributed to the single or batch
// form, so it is counted on the parse pseudo-endpoint, which keeps
// errors <= requests on every row. On !ok the response has been written.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req any) (rctx context.Context, root *trace.Span, ok bool) {
	rctx, root = s.tracer.StartRequest(r.Context(), r.Header.Get(trace.Header))
	if root != nil {
		w.Header().Set(trace.Header, root.Traceparent())
	}
	_, psp := trace.StartSpan(rctx, trace.StageParse)
	// Strict: an unknown field (a misspelt bound would silently widen the
	// query) or anything after the one JSON value is a malformed request.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	derr := dec.Decode(req)
	if derr == nil {
		switch _, terr := dec.Token(); {
		case terr == nil:
			derr = errors.New("trailing data after the JSON value")
		case terr != io.EOF: // malformed tail, or the size bound hit while reading it
			derr = fmt.Errorf("trailing data after the JSON value: %w", terr)
		}
	}
	psp.End()
	if derr != nil {
		s.metrics.OnParseError()
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(derr, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad request body: "+derr.Error())
		return rctx, root, false
	}
	return rctx, root, true
}

// admit passes the request through gate: shed, never queue. 429 asks the
// client to back off and retry; 503 says the server is going away. On
// true the caller holds a slot and releases it; on false the shed has
// been counted on ep and answered.
func (s *Server) admit(rctx context.Context, w http.ResponseWriter, gate *Gate, ep Endpoint) bool {
	_, asp := trace.StartSpan(rctx, trace.StageAdmission)
	aerr := gate.Admit()
	asp.End()
	if aerr == nil {
		return true
	}
	s.metrics.OnShed(ep)
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	if errors.Is(aerr, ErrDraining) {
		httpError(w, http.StatusServiceUnavailable, aerr.Error())
	} else {
		httpError(w, http.StatusTooManyRequests, aerr.Error())
	}
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	rctx, root, ok := s.decode(w, r, &req)
	if root != nil {
		defer s.tracer.FinishRequest(root)
	}
	if !ok {
		return
	}
	// One engine call serves both forms: the single form is a batch of
	// one at parallelism 1, which runs on the calling goroutine.
	ep, specs, par := EPQuery, []QuerySpec{req.QuerySpec}, 1
	if req.Queries != nil {
		ep, specs, par = EPBatch, req.Queries, req.Parallelism
		if par <= 0 || par > s.cfg.BatchParallelism {
			par = s.cfg.BatchParallelism
		}
	}
	s.metrics.OnRequest(ep)
	if len(specs) > s.cfg.MaxBatch {
		s.metrics.OnError(ep)
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(specs), s.cfg.MaxBatch))
		return
	}
	if !s.admit(rctx, w, s.gate, ep) {
		return
	}
	defer s.gate.Release()

	// Per-request deadline: the server's default, lowered (never raised)
	// by the client's timeout_ms; cancels with the connection either way.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	ctx, cancel := context.WithTimeout(rctx, timeout)
	defer cancel()

	start := time.Now()
	// The batch runner gives each subquery its query span and stops at the
	// deadline: workers start nothing new once ctx is done and abort
	// queries already emitting, so a timed-out request sheds its load.
	queries := make([]segdb.Query, len(specs))
	for i, qs := range specs {
		queries[i] = qs.Query()
	}
	results := s.cur().ix.QueryBatchContext(ctx, queries, par)
	var answers int
	var io QueryIO
	wire := make([]QueryResult, len(results))
	for i, br := range results {
		qr := QueryResult{Count: len(br.Hits)}
		if !req.OmitHits {
			qr.Hits = toWire(br.Hits)
		}
		if br.Err != nil {
			qr.Error = br.Err.Error()
		}
		answers += len(br.Hits)
		io.Add(br.Stats)
		wire[i] = qr
	}

	// The forms differ only in how a failure surfaces: a batch reports
	// per-query errors inline and fails only on its deadline; a single
	// query's error is the request's.
	var resp QueryResponse
	var status, failure string
	code := http.StatusServiceUnavailable
	if ep == EPBatch {
		resp.Results = wire
		if err := ctx.Err(); err != nil {
			status, failure = "deadline", "batch exceeded deadline: "+err.Error()
		}
	} else if err := results[0].Err; err == nil {
		resp.QueryResult = wire[0]
	} else if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status, failure = "deadline", "query cancelled: "+err.Error()
	} else {
		status, failure, code = "error", err.Error(), http.StatusInternalServerError
	}
	if status != "" {
		s.metrics.OnFailure(ep)
		s.observeSlow(ep, querySummary(&req), time.Since(start), io, answers, status, root, results)
		httpError(w, code, failure)
		return
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed) / 1e6
	s.metrics.OnDone(ep, elapsed, answers, io)
	s.observeSlow(ep, querySummary(&req), elapsed, io, answers, "ok", root, results)
	_, esp := trace.StartSpan(rctx, trace.StageEncode)
	writeJSON(w, http.StatusOK, resp)
	esp.End()
}

// UpdateRequest is the /v1/insert and /v1/delete body: one segment. For
// delete, the segment must match a stored one exactly (same id and
// endpoints) — segment identity, not id lookup, mirroring the Index
// contract.
type UpdateRequest struct {
	WireSegment
}

// UpdateResponse is the update endpoints' response. Found is meaningful
// for deletes only: false means no matching segment was stored (the
// delete is a durable no-op and is not logged). PagesWritten is the
// update's physical write cost — the paper's I/O measure for the update
// path.
type UpdateResponse struct {
	Found        bool    `json:"found"`
	Segments     int     `json:"segments"`
	PagesRead    int64   `json:"pages_read"`
	PagesWritten int64   `json:"pages_written"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// handleUpdate serves POST /v1/insert and /v1/delete through the
// configured Updater under the write-admission gate. An acknowledged
// (200) update is durable: the Updater's contract is that it returns
// only after the WAL record is fsynced (group commit batches concurrent
// acknowledgements into shared fsyncs).
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.cfg.Updater == nil {
		if s.cfg.Follower != nil {
			// A replica knows where writes go: point the client at the
			// leader instead of claiming writes are unimplemented.
			w.Header().Set("X-Segdb-Leader", s.cfg.Follower.Status().Leader)
			httpError(w, http.StatusServiceUnavailable, "read replica: send writes to the leader")
			return
		}
		httpError(w, http.StatusNotImplemented, "read-only server: restart segdbd with -wal to enable updates")
		return
	}
	var req UpdateRequest
	rctx, root, ok := s.decode(w, r, &req)
	if root != nil {
		defer s.tracer.FinishRequest(root)
	}
	if !ok {
		return
	}
	s.metrics.OnRequest(ep)
	// Updates have their own admission class: a write burst sheds with
	// 429 instead of eating read slots, and vice versa.
	if !s.admit(rctx, w, s.wgate, ep) {
		return
	}
	defer s.wgate.Release()

	seg := segdb.NewSegment(req.ID, req.AX, req.AY, req.BX, req.BY)
	start := time.Now()
	var (
		found bool
		ust   segdb.UpdateStats
		err   error
	)
	if ep == EPInsert {
		ust, err = s.insert(rctx, seg)
		found = err == nil
	} else {
		found, ust, err = s.remove(rctx, seg)
	}
	elapsed := time.Since(start)
	var io QueryIO
	io.AddUpdate(ust)
	if err != nil {
		if errors.Is(err, segdb.ErrInvalidSegment) {
			s.metrics.OnError(ep)
			s.observeSlow(ep, updateSummary(ep, &req), elapsed, io, 0, "error", root, nil)
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Anything else is the durability machinery failing (wedged WAL,
		// dying disk): a 5xx, and the server stays up serving reads.
		s.metrics.OnFailure(ep)
		s.observeSlow(ep, updateSummary(ep, &req), elapsed, io, 0, "failure", root, nil)
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.OnDone(ep, elapsed, 0, io)
	s.observeSlow(ep, updateSummary(ep, &req), elapsed, io, 0, "ok", root, nil)
	_, esp := trace.StartSpan(rctx, trace.StageEncode)
	writeJSON(w, http.StatusOK, UpdateResponse{
		Found:        found,
		Segments:     s.cur().ix.Len(),
		PagesRead:    ust.PagesRead,
		PagesWritten: ust.PagesWritten,
		ElapsedMS:    float64(elapsed) / 1e6,
	})
	esp.End()
}

// observeSlow logs the request if it crossed a slow-query threshold.
// summary is the compact query/update shape for the log's Query column;
// root (nil when untraced) donates the trace ID, and results carry a
// batch's per-subquery attribution.
func (s *Server) observeSlow(ep Endpoint, summary string, elapsed time.Duration, io QueryIO, answers int, status string, root *trace.Span, results []segdb.BatchResult) {
	if !s.slow.Crossed(elapsed, io.PagesRead) {
		return
	}
	e := SlowEntry{
		Time:         time.Now(),
		Endpoint:     endpointNames[ep],
		Query:        summary,
		Status:       status,
		ElapsedMS:    float64(elapsed) / 1e6,
		PagesRead:    io.PagesRead,
		PoolHits:     io.PoolHits,
		PagesWritten: io.PagesWritten,
		Answers:      answers,
		Inflight:     s.gate.Inflight(),
		Draining:     s.gate.Draining(),
		TraceID:      root.TraceID(),
	}
	if ep == EPBatch {
		e.Batch = batchSlow(results)
	}
	s.slow.Record(e)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.metrics.OnRequest(EPStatsz)
	snap := s.Snapshot()
	if r.URL.Query().Get("slow") != "" {
		sl := s.slow.Snapshot()
		snap.SlowLog = &sl
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleMetricsz serves the same registry /statsz renders as JSON, in
// Prometheus text exposition format.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.metrics.OnRequest(EPStatsz)
	snap := s.Snapshot()
	sl := s.slow.Snapshot()
	snap.SlowLog = &sl
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, snap)
}

// handleHealthz is liveness by default; with ?deep=1 it also proves the
// read path end to end by running a stabbing query against the real
// store (root spine traversal, checksum-verified page reads). A deep
// failure — a corrupt page, a dying disk, a wedged index lock — returns
// 500 with the error, so orchestrators can stop routing to a replica
// whose file has rotted underneath it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.gate.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if r.URL.Query().Get("deep") != "" {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DeepTimeout)
		defer cancel()
		if _, err := s.cur().ix.QueryContext(ctx, segdb.VLine(s.cfg.DeepProbeX), func(segdb.Segment) {}); err != nil {
			httpError(w, http.StatusInternalServerError, "deep check failed: "+err.Error())
			return
		}
		// A replica that has fallen too far behind is serving answers staler
		// than the operator allows: stop routing to it until it catches up.
		if s.cfg.Follower != nil {
			if err := s.cfg.Follower.Healthy(s.cfg.MaxReplicaLag); err != nil {
				httpError(w, http.StatusInternalServerError, "deep check failed: "+err.Error())
				return
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
