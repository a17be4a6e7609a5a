// Command segdbd serves a persisted segdb index over HTTP: the network
// front of the library. It opens the store's catalog (either Solution),
// wraps the index in segdb.SynchronizedOn so queries run concurrently on
// the sharded buffer pool with per-query I/O attribution, and serves them
// behind explicit admission control — load beyond -max-inflight is shed
// with 429 + Retry-After instead of queueing unboundedly.
//
// Usage:
//
//	segdb gen   -kind layers -n 50000 -out segs.csv
//	segdb build -in segs.csv -db index.db -b 32
//	segdbd -db index.db -addr :8080
//
// -b defaults to probing the file for the build-time block capacity.
//
// Endpoints:
//
//	POST /v1/query   {"x":10,"ylo":0,"yhi":5}            segment query
//	                 {"x":10,"ylo":0}                     upward ray
//	                 {"x":10}                             stabbing line
//	                 {"queries":[...],"parallelism":4}    batch (QueryBatch)
//	POST /v1/insert  {"id":7,"ax":0,"ay":1,"bx":5,"by":2}  durable insert
//	POST /v1/delete  same body                             durable delete
//	                 (both require -wal; read-only serving answers 501)
//	GET  /statsz     request counts, latency and pages-read histograms,
//	                 admission and per-shard store stats (JSON);
//	                 ?slow=1 adds the slow-query ring
//	GET  /metricsz   the same registry in Prometheus text format
//	GET  /tracez     sampled request traces with per-stage span trees
//	GET  /healthz    liveness; 503 once draining
//	GET  /healthz?deep=1  additionally runs a stabbing query (at
//	                 -probe-x) through the real store: corrupt pages or a
//	                 dying disk answer 500, not ok
//
// Observability:
//
//   - Requests slower than -slow-latency, or reading more than -slow-io
//     physical pages, land in a bounded in-memory ring (/statsz?slow=1)
//     and, with -slow-log, are appended as JSONL to a file.
//     -slow-latency 0 logs every request — the smoke-test setting.
//   - -trace-sample enables request tracing: every request gets per-stage
//     spans (admission, per-shard probes, pager misses, WAL group commit,
//     ...) feeding the segdb_stage_seconds histograms, and a sampled
//     subset of complete traces — plus every slow or caller-sampled one —
//     is retained behind GET /tracez (ring capacity -trace-ring) and,
//     with -trace-log, appended as JSONL. Inbound W3C traceparent headers
//     are honoured and the response carries one back; slow-log entries
//     carry their trace_id. 0 (the default) disables tracing entirely.
//   - -debug-addr starts a second listener serving net/http/pprof
//     (/debug/pprof/...), kept off the query port so profiling can stay
//     firewalled in production.
//
// -verify runs segdb.VerifyIndexFile before serving: every page checksum
// plus a full structural walk, refusing to serve a damaged file.
//
// -wal <path> serves the index read-write as a segdb.DurableIndex: every
// acknowledged insert/delete is covered by an fsynced write-ahead-log
// record before the response, -group-commit-window batches concurrent
// writers into shared fsyncs, and updates get their own admission class
// (-max-inflight-updates). The index file itself only changes at the
// shutdown checkpoint, via the atomic shadow commit.
//
// Replication: a read-write (-wal) segdbd is automatically a leader — it
// serves GET /v1/repl/snapshot and /v1/repl/wal so followers can
// bootstrap and tail it, POST /v1/admin/compact rotates its log online,
// and /statsz carries per-follower lag. `segdbd -follow <leader-url>`
// runs a follower instead: it bootstraps from the leader's snapshot into
// -db, tails committed WAL records into a local crash-durable copy, and
// serves reads from it; writes answer 503 with the leader's URL in
// X-Segdb-Leader. /healthz?deep=1 turns red when replication lag
// exceeds -max-replica-lag.
//
// Sharding: `segdbd -shards=K -db <dir>` serves a sharded store built by
// `segdb shard` — K x-range slabs, each with its own index, checkpoint
// and write-ahead log. Queries route to the slab owning their x plus its
// left-cut spanner list, batches scatter-gather across shards, updates
// route to the owning shard's WAL, and /statsz//metricsz grow per-shard
// rows. -shards is exclusive with -wal and -follow.
//
// SIGINT/SIGTERM drains gracefully: stop admitting, finish in-flight
// requests, flush the slow log, then checkpoint (WAL mode) or fsync and
// close the store.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"segdb"
	"segdb/internal/server"
	"segdb/internal/trace"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "segdbd:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		log.Fatalf("segdbd: %v", err)
	}
}

// run serves cfg until ctx is cancelled, then shuts down gracefully: stop
// admitting, finish the in-flight requests, stop accepting connections,
// stop the background loops, and hand the engine its shutdown, which
// makes the store durable. ready, if non-nil, is told the listener's
// address as soon as it accepts connections (-addr may name port 0). The
// error is the first thing that kept run from serving, or what the
// engine's shutdown could not make durable.
func run(ctx context.Context, cfg config, ready func(net.Addr)) error {
	scfg := cfg.server
	slow, err := openJSONLSink(cfg.slowLog, "slow queries")
	if err != nil {
		return err
	}
	defer slow.close()
	if slow != nil {
		scfg.SlowSink = func(e server.SlowEntry) { slow.record(e) }
	}
	traces, err := openJSONLSink(cfg.traceLog, "kept traces")
	if err != nil {
		return err
	}
	defer traces.close()
	if traces != nil {
		scfg.TraceSink = func(t trace.TraceSnapshot) { traces.record(t) }
	}
	if scfg.TraceSample > 0 {
		log.Printf("segdbd: tracing on (sample %g, ring %d)", scfg.TraceSample, scfg.TraceRing)
	}

	e, err := openEngine(ctx, cfg)
	if err != nil {
		return err
	}
	scfg.Updater, scfg.Repl, scfg.Follower = e.updater, e.leader, e.follower
	srv := server.New(e.ix, e.st, scfg)
	e.srv = srv

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return errors.Join(err, e.shutdown())
	}
	if ready != nil {
		ready(ln.Addr())
	}
	if cfg.debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg := &http.Server{Addr: cfg.debugAddr, Handler: mux}
		defer dbg.Close()
		go func() {
			log.Printf("segdbd: pprof on %s/debug/pprof/", cfg.debugAddr)
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("segdbd: debug listener: %v", err)
			}
		}()
	}

	// Background loops, alive from here until the server has drained: the
	// engine's tail, and the compaction governor watching each writable
	// unit's WAL against the -auto-compact thresholds, so an unattended
	// leader's log (and restart-replay time) stays bounded without an
	// operator POSTing /v1/admin/compact.
	loopCtx, stopLoops := context.WithCancel(context.Background())
	defer stopLoops()
	var running sync.WaitGroup
	background := func(loop func(context.Context)) {
		running.Add(1)
		go func() {
			defer running.Done()
			loop(loopCtx)
		}()
	}
	if e.tail != nil {
		background(e.tail)
	}
	if len(e.units) > 0 && cfg.autoCompactRecords > 0 {
		log.Printf("segdbd: auto-compact on (records %d, poll %v, units %d)",
			cfg.autoCompactRecords, cfg.autoCompactInterval, len(e.units))
		background(segdb.NewGovernor(e.units, segdb.GovernorConfig{
			Records:  cfg.autoCompactRecords,
			Interval: cfg.autoCompactInterval,
			Parallel: e.parallel,
			Defer:    e.deferCompact,
			Logf:     log.Printf,
			OnCompact: func(unit int, took time.Duration, err error) {
				srv.ObserveCompaction(true, took, err)
			},
			OnDefer: func(unit int, reason string) {
				srv.ObserveCompactDeferral()
			},
		}).Run)
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("segdbd: serving on %s (max-inflight %d, timeout %v)",
			ln.Addr(), scfg.MaxInflight, scfg.DefaultTimeout)
		errc <- hs.Serve(ln)
	}()

	var serveErr error
	select {
	case serveErr = <-errc:
		serveErr = fmt.Errorf("serve: %w", serveErr)
	case <-ctx.Done():
		log.Printf("segdbd: draining (inflight %d)", srv.Gate().Inflight())
		dctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			log.Printf("segdbd: %v", err)
		}
		if err := hs.Shutdown(dctx); err != nil {
			log.Printf("segdbd: shutdown: %v", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			log.Printf("segdbd: serve: %v", err)
		}
	}
	// Stop the loops before the shutdown checkpoint closes anything: the
	// governor finishes its in-flight poll (and any compaction it
	// started) before returning, so no background Compact can race Close;
	// the shutdown Compact coalesces with a just-finished auto-compact
	// through the single-flight guard at worst.
	stopLoops()
	running.Wait()
	snap := srv.Snapshot()
	err = errors.Join(serveErr, e.shutdown())
	fmt.Print(exitSummary(snap))
	return err
}

// exitSummary is the report printed at exit, one line per part of the
// snapshot that has something to say.
func exitSummary(snap server.Snapshot) string {
	ep := snap.Endpoints
	s := fmt.Sprintf("segdbd: served %d queries, %d batches, shed %d; store hit ratio %.3f\n",
		ep["query"].Requests, ep["batch"].Requests, snap.Admission.Shed, snap.Store.HitRatio)
	if snap.WAL != nil {
		across := ""
		if n := len(snap.Shards); n > 0 {
			across = fmt.Sprintf(" across %d shards", n)
		}
		s += fmt.Sprintf("segdbd: served %d inserts, %d deletes; checkpointed %d segments%s\n",
			ep["insert"].Requests, ep["delete"].Requests, snap.Segments, across)
	}
	if snap.Repl != nil {
		s += fmt.Sprintf("segdbd: follower applied %d records in %d batches, %d re-snapshots\n",
			snap.Repl.RecordsApplied, snap.Repl.BatchesApplied, snap.Repl.Resnapshots)
	}
	if snap.Compact != nil && snap.Compact.Total > 0 {
		s += fmt.Sprintf("segdbd: %d compactions (%d auto, %d failed, %d deferred)\n",
			snap.Compact.Total, snap.Compact.Auto, snap.Compact.Failures, snap.Compact.Deferred)
	}
	return s
}

// jsonlSink appends JSON records to a file, one write per line, so the
// file is live for tail -f. It backs both the slow-query log and the
// trace log: records arrive on request goroutines, but only at
// slow-query / kept-trace rates, so a mutex around the file is plenty.
type jsonlSink struct {
	mu sync.Mutex
	f  *os.File
}

// openJSONLSink opens the file what's records append to. An empty path
// is no sink: the nil *jsonlSink, whose close is a no-op.
func openJSONLSink(path, what string) (*jsonlSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", what, err)
	}
	log.Printf("segdbd: %s append to %s", what, path)
	return &jsonlSink{f: f}, nil
}

func (s *jsonlSink) record(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Write(append(line, '\n')) // a lost log line must not fail the request it describes
}

func (s *jsonlSink) close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Close(); err != nil {
		log.Printf("segdbd: %s: %v", s.f.Name(), err)
	}
}
