package main

// The end-to-end gates: each scenario builds its stores with the real
// segdb CLI, serves them from real segdbd child processes, drives them
// with segload, and kills them the hard way. They need a Go toolchain and
// tens of seconds, so they run only when SEGDB_E2E is set — which is what
// `make serve-smoke repl-smoke shard-smoke trace-smoke` do. The in-process
// tests in main_test.go cover the same wiring on every `go test ./...`.
//
// Everything a scenario does to a process goes through the helpers here:
// tool (build once), startDaemon (free port, log tail on failure, wait
// healthy), the api scrapers, term and kill9.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"segdb/internal/repl"
	"segdb/internal/server"
	"segdb/internal/trace"
)

func needE2E(t *testing.T) {
	if os.Getenv("SEGDB_E2E") == "" {
		t.Skip("subprocess scenario: set SEGDB_E2E=1, or run the make *-smoke targets")
	}
}

// tools holds cmd/segdb, cmd/segdbd and cmd/segload, built from the tree
// once per test process on first use.
var tools struct {
	once sync.Once
	dir  string
	err  error
}

func tool(t testing.TB, name string) string {
	t.Helper()
	tools.once.Do(func() {
		if tools.dir, tools.err = os.MkdirTemp("", "segdb-e2e-"); tools.err != nil {
			return
		}
		build := exec.Command("go", "build", "-o", tools.dir, "segdb/cmd/segdb", "segdb/cmd/segdbd", "segdb/cmd/segload")
		if out, err := build.CombinedOutput(); err != nil {
			tools.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if tools.err != nil {
		t.Fatal(tools.err)
	}
	return filepath.Join(tools.dir, name)
}

func removeTools() {
	if tools.dir != "" {
		os.RemoveAll(tools.dir)
	}
}

// startTool starts one of the binaries; the returned function waits for
// it and returns its stdout, failing the test with everything it printed
// on a non-zero exit.
func startTool(t testing.TB, name string, args ...string) (wait func() string) {
	t.Helper()
	cmd := exec.Command(tool(t, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return func() string {
		t.Helper()
		if err := cmd.Wait(); err != nil {
			t.Fatalf("%s %v: %v\n%s%s", name, args, err, stdout.Bytes(), stderr.Bytes())
		}
		return stdout.String()
	}
}

// runTool runs one of the binaries to completion.
func runTool(t testing.TB, name string, args ...string) string {
	t.Helper()
	return startTool(t, name, args...)()
}

// loadReport is the part of segload's -json report the scenarios read.
type loadReport struct {
	Errors  int64 `json:"errors"`
	Inserts int64 `json:"inserts"`
	Targets []struct {
		Primary  bool         `json:"primary"`
		Requests int64        `json:"requests"`
		Repl     *repl.Status `json:"repl"`
	} `json:"read_targets"`
}

// startSegload starts a load; the returned function waits for it and
// insists on zero failed requests, and — when the mix has writes — on
// acknowledged inserts.
func startSegload(t testing.TB, args ...string) (wait func() loadReport) {
	t.Helper()
	done := startTool(t, "segload", append(args, "-json")...)
	return func() loadReport {
		t.Helper()
		out := done()
		var r loadReport
		if err := json.Unmarshal([]byte(out), &r); err != nil {
			t.Fatalf("segload %v: undecodable report: %v\n%s", args, err, out)
		}
		writes := strings.Contains(strings.Join(args, " "), "-write-frac")
		if r.Errors != 0 || (writes && r.Inserts == 0) {
			t.Fatalf("segload %v: %d errors, %d inserts\n%s", args, r.Errors, r.Inserts, out)
		}
		return r
	}
}

func segload(t testing.TB, args ...string) loadReport {
	t.Helper()
	return startSegload(t, args...)()
}

// freeAddr picks a loopback port that is free right now.
func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// daemon is one segdbd child process and its client.
type daemon struct {
	api
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

// startDaemon launches segdbd on a free loopback port and returns once
// /healthz answers. The child dies with the test binary, is killed when
// the test ends, and a failed test prints the tail of its log.
func startDaemon(t testing.TB, args ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	logf, err := os.CreateTemp(t.TempDir(), "segdbd-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{api: api{t, "http://" + addr}, exited: make(chan struct{})}
	d.cmd = exec.Command(tool(t, "segdbd"), append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.kill9()
		if t.Failed() {
			raw, _ := os.ReadFile(logf.Name())
			if len(raw) > 4096 {
				raw = raw[len(raw)-4096:]
			}
			t.Logf("segdbd %v log tail:\n%s", args, raw)
		}
	})
	d.waitHealthy()
	return d
}

func (d *daemon) waitHealthy() {
	d.t.Helper()
	eventually(d.t, 30*time.Second, "segdbd to answer /healthz", func() bool {
		select {
		case <-d.exited:
			d.t.Fatalf("segdbd exited before it became healthy: %v", d.cmd.ProcessState)
		default:
		}
		code, _, _, err := d.do(http.MethodGet, "/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})
}

// term is a graceful stop: SIGTERM, then a clean exit.
func (d *daemon) term() {
	d.t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.t.Fatal("segdbd still running a minute after SIGTERM")
	}
	if !d.cmd.ProcessState.Success() {
		d.t.Fatalf("segdbd after SIGTERM: %v", d.cmd.ProcessState)
	}
}

// kill9 is the crash: SIGKILL, reaped before it returns.
func (d *daemon) kill9() {
	d.cmd.Process.Kill()
	<-d.exited
}

// dataset writes the layers workload every scenario builds its stores
// from: n segments over x in [0, n), far below the probe's y.
func dataset(t testing.TB, dir string, n int) string {
	csv := filepath.Join(dir, "segs.csv")
	runTool(t, "segdb", "gen", "-kind", "layers", "-n", strconv.Itoa(n), "-out", csv)
	return csv
}

// hitIDs is the sorted IDs of a result's hits below bound; bound filters
// out segload's own writes (ids >= 2^32), which differ between servers.
func hitIDs(r server.QueryResult, bound uint64) []uint64 {
	ids := []uint64{}
	for _, h := range r.Hits {
		if h.ID < bound {
			ids = append(ids, h.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

const (
	noBound   = ^uint64(0)
	loadFloor = 1 << 32 // segload's ID floor for the segments it inserts

	sampledParent = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	sampledID     = "0123456789abcdef0123456789abcdef"
)

// wantSeries asserts each series is on /metricsz.
func wantSeries(t testing.TB, m map[string]float64, series ...string) {
	t.Helper()
	for _, s := range series {
		if _, ok := m[s]; !ok {
			t.Fatalf("/metricsz lacks %s", s)
		}
	}
}

// wantDark asserts a server with tracing off shows no trace of it: a
// sampled caller gets no traceparent back, /tracez is empty though
// traffic flowed, and no stage histogram materialises.
func wantDark(t testing.TB, d *daemon, q server.QueryRequest) {
	t.Helper()
	if _, h := d.query(q, map[string]string{trace.Header: sampledParent}); h.Get(trace.Header) != "" {
		t.Fatalf("tracing off, but the response carries traceparent %q", h.Get(trace.Header))
	}
	if ring := d.tracez(); ring.SampleRate != 0 || ring.TracesStarted != 0 || len(ring.Traces) != 0 {
		t.Fatalf("tracing off, but /tracez holds %+v", ring)
	}
	for series := range d.metricsz() {
		if strings.HasPrefix(series, "segdb_stage_seconds") {
			t.Fatalf("tracing off, but /metricsz exports %s", series)
		}
	}
}

// stagesOf is the set of stages among a trace's spans.
func stagesOf(tr trace.TraceSnapshot) map[string]bool {
	set := make(map[string]bool)
	for _, sp := range tr.Spans {
		set[sp.Stage] = true
	}
	return set
}

func wantStages(t testing.TB, what string, tr trace.TraceSnapshot, stages ...string) {
	t.Helper()
	have := stagesOf(tr)
	for _, s := range stages {
		if !have[s] {
			t.Fatalf("%s trace lacks a %s span: %+v", what, s, tr.Spans)
		}
	}
}

// traceByID finds the kept trace with the given ID; exactly one must be.
func traceByID(t testing.TB, ring trace.RingSnapshot, id string) trace.TraceSnapshot {
	t.Helper()
	var found []trace.TraceSnapshot
	for _, tr := range ring.Traces {
		if tr.TraceID == id {
			found = append(found, tr)
		}
	}
	if len(found) != 1 {
		t.Fatalf("/tracez holds %d traces with id %s, want 1", len(found), id)
	}
	return found[0]
}

// wantJSONL asserts path holds at least min lines, each valid JSON that
// check accepts.
func wantJSONL(t testing.TB, path string, min int, check func(line map[string]any) bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || !check(line) {
			t.Fatalf("%s line %d: %v: %s", path, n+1, err, sc.Bytes())
		}
		n++
	}
	if sc.Err() != nil || n < min {
		t.Fatalf("%s: %d lines (want >= %d), %v", path, n, min, sc.Err())
	}
}

// TestE2EServe: the serving path. A file-backed index behind segdbd with
// the slow log at 0-threshold, tracing and pprof on, driven by segload;
// then the write path (-wal): insert, kill -9, survive, graceful stop,
// checkpoint.
func TestE2EServe(t *testing.T) {
	needE2E(t)
	dir := t.TempDir()
	csv := dataset(t, dir, 5000)
	db := filepath.Join(dir, "index.db")
	runTool(t, "segdb", "build", "-in", csv, "-db", db, "-b", "32")
	// A query through the CLI cross-checks the persisted index against the CSV.
	runTool(t, "segdb", "query", "-db", db, "-b", "32", "-x", "2500", "-ylo", "0", "-yhi", "200", "-check", csv)

	dbgAddr := freeAddr(t)
	slowLog := filepath.Join(dir, "slow.jsonl")
	// -slow-latency 0 logs every request and -trace-sample 1 keeps every
	// trace: ring, sink, /tracez and the stage histograms must all light up.
	d := startDaemon(t, "-db", db, "-max-inflight", "16", "-debug-addr", dbgAddr,
		"-slow-latency", "0", "-slow-ring", "64", "-slow-log", slowLog, "-trace-sample", "1")

	// segload scrapes /metricsz itself and folds server-side I/O
	// attribution into its report.
	out := runTool(t, "segload", "-addr", d.base, "-csv", csv, "-c", "4", "-duration", "2s")
	if !strings.Contains(out, "pages read/query") || strings.Contains(out, "metricsz unavailable") {
		t.Fatalf("segload reported no server-side i/o per query:\n%s", out)
	}

	// /statsz records the traffic, with per-endpoint I/O attribution.
	snap := d.statsz()
	q := snap.Endpoints["query"]
	if q.Requests == 0 || q.Answers == 0 || q.Latency.Count == 0 || q.IOReads+q.IOHits == 0 ||
		q.PagesRead.Count != q.Requests || len(snap.Store.Shards) == 0 || snap.Store.Total.Reads == 0 ||
		snap.Admission.MaxInflight != 16 || snap.Admission.Inflight != 0 || snap.Segments == 0 {
		t.Fatalf("statsz failed the sanity check: %+v", snap)
	}

	// The slow ring holds entries with a query shape, and the JSONL sink
	// is line-delimited JSON.
	if sl := snap.SlowLog; sl == nil || sl.Total == 0 || len(sl.Entries) == 0 || sl.Entries[0].Query == "" {
		t.Fatalf("slow-query ring under a 0 threshold: %+v", sl)
	}
	wantJSONL(t, slowLog, 1, func(map[string]any) bool { return true })

	// An inbound traceparent round-trips onto the response; /tracez holds
	// well-formed span trees, the caller's among them; the slow log links
	// back by trace ID.
	_, h := d.query(vseg(2500, 0, 200), map[string]string{trace.Header: sampledParent})
	if !strings.HasPrefix(h.Get(trace.Header), "00-"+sampledID+"-") {
		t.Fatalf("traceparent did not round-trip: %q", h.Get(trace.Header))
	}
	ring := d.tracez()
	if ring.SampleRate != 1 || ring.TracesKept == 0 {
		t.Fatalf("/tracez: sample rate %v, %d kept", ring.SampleRate, ring.TracesKept)
	}
	traceByID(t, ring, sampledID)
	for _, tr := range ring.Traces {
		if len(tr.TraceID) != 32 || len(tr.Spans) == 0 || tr.DurationMS < 0 {
			t.Fatalf("malformed trace on /tracez: %+v", tr)
		}
	}
	if id := d.statsz().SlowLog.Entries[0].TraceID; len(id) != 32 {
		t.Fatalf("newest slow entry is not linked to a trace: %q", id)
	}

	// /metricsz is strict exposition format with the key series non-zero.
	m := d.metricsz()
	wantSeries(t, m, `segdb_requests_total{endpoint="query"}`,
		`segdb_query_pages_read_bucket{endpoint="query",le="+Inf"}`,
		`segdb_request_latency_seconds_bucket{endpoint="query",le="+Inf"}`,
		`segdb_slow_requests_total`,
		`segdb_stage_seconds_count{stage="request"}`,
		`segdb_stage_seconds_bucket{stage="query",le="+Inf"}`,
		`segdb_store_shard_reads_total{shard="0"}`)
	if m[`segdb_requests_total{endpoint="query"}`] <= 0 {
		t.Fatal("/metricsz query request counter is zero")
	}

	// The debug listener serves pprof, kept off the query port.
	if resp, err := http.Get("http://" + dbgAddr + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof debug listener: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	d.term()

	// ---- write path: segdbd -wal ---------------------------------------
	// A Solution-1 index (the fully dynamic structure -wal requires),
	// served read-write.
	rw, wal := filepath.Join(dir, "rw.db"), filepath.Join(dir, "rw.wal")
	runTool(t, "segdb", "build", "-in", csv, "-db", rw, "-b", "32", "-sol", "1")
	startRW := func() *daemon {
		return startDaemon(t, "-db", rw, "-wal", wal, "-group-commit-window", "1ms")
	}
	d = startRW()
	if code, _, up := d.insert(probe, nil); code != http.StatusOK || !up.Found {
		t.Fatalf("insert not acknowledged: HTTP %d %+v", code, up)
	}
	d.wantProbe("after insert")

	// Mixed read/write load, then the write path's histograms and WAL
	// gauges on both surfaces.
	segload(t, "-addr", d.base, "-csv", csv, "-c", "4", "-duration", "2s", "-write-frac", "0.2")
	wantSeries(t, d.metricsz(), `segdb_requests_total{endpoint="insert"}`,
		`segdb_query_pages_written_count{endpoint="insert"}`,
		`segdb_io_pages_written_total{endpoint="insert"}`,
		`segdb_updates_admitted_total`, `segdb_wal_records`, `segdb_wal_durable_bytes`)
	snap = d.statsz()
	if snap.Endpoints["insert"].Requests == 0 || snap.WAL == nil || snap.WAL.Records == 0 ||
		snap.WAL.DurableBytes != snap.WAL.SizeBytes || snap.WriteAdmission == nil || snap.WriteAdmission.Admitted == 0 {
		t.Fatalf("statsz write-path rows: insert %+v, wal %+v, write admission %+v",
			snap.Endpoints["insert"], snap.WAL, snap.WriteAdmission)
	}
	// This server runs with tracing off (the default).
	wantDark(t, d, probeQuery)

	// kill -9 loses nothing that was acknowledged: the WAL replays over
	// the untouched checkpoint at restart.
	d.kill9()
	runTool(t, "segdb", "verify", "-db", rw)
	d = startRW()
	d.wantProbe("after kill -9 and restart")

	// A graceful stop checkpoints: the index file absorbs the live state
	// (and still verifies) and the log rotates back to its bare header.
	d.term()
	runTool(t, "segdb", "verify", "-db", rw)
	walIsEmpty(t, wal)
}

// TestE2ETrace: request tracing over a 4-shard WAL-backed store — the
// traceparent round trip, span trees across the shard fan-out and down
// the WAL write path, stage histograms, the trace-linked slow log, the
// JSONL sink, segload -trace; then tracing off goes dark.
func TestE2ETrace(t *testing.T) {
	needE2E(t)
	dir := t.TempDir()
	csv := dataset(t, dir, 5000)
	shards := filepath.Join(dir, "shards")
	runTool(t, "segdb", "shard", "-in", csv, "-out", shards, "-shards", "4", "-b", "32")
	start := func(args ...string) *daemon {
		return startDaemon(t, append([]string{"-db", shards, "-shards", "4", "-cache", "64", "-group-commit-window", "1ms"}, args...)...)
	}
	sink := filepath.Join(dir, "traces.jsonl")
	d := start("-trace-sample", "1", "-trace-ring", "32", "-trace-log", sink, "-slow-latency", "0")

	// The inbound trace ID comes back on the response and names the kept
	// trace.
	const tid, insertID, batchID = "4bf92f3577b34da6a3ce929d0e0e4736", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab", "cccccccccccccccccccccccccccccccd"
	everything := vseg(2500, -1e18, 1e18)
	// One request first: the root span of a process's very first request
	// also times encoding/json building its type caches, which the
	// duration comparison below has no slack for.
	d.query(everything, nil)
	resp, h := d.query(everything, map[string]string{trace.Header: "00-" + tid + "-00f067aa0ba902b7-01"})
	if !strings.HasPrefix(h.Get(trace.Header), "00-"+tid+"-") {
		t.Fatalf("response traceparent %q does not echo the inbound trace id", h.Get(trace.Header))
	}
	// A traced durable insert exercises the write stages down to the WAL.
	spanning := server.WireSegment{ID: probe.ID, AX: -10, AY: probe.AY, BX: 999999, BY: probe.BY}
	if code, _, up := d.insert(spanning, map[string]string{trace.Header: "00-" + insertID + "-00000000000000ab-01"}); code != http.StatusOK || !up.Found {
		t.Fatalf("traced insert not acknowledged: HTTP %d %+v", code, up)
	}
	// A batch spread across x exercises the scatter-gather: several
	// probes, several shards, one trace.
	d.query(server.QueryRequest{Queries: []server.QuerySpec{{X: 100}, {X: 1500}, {X: 2900}, {X: 4500}}},
		map[string]string{trace.Header: "00-" + batchID + "-00000000000000cd-01"})
	ring := d.tracez()

	// The query trace's span tree: root plus the read stages, every child
	// parented inside the tree, and the root duration within 10 % (plus
	// 1 ms of scheduling slack) of the server-reported endpoint latency.
	qt := traceByID(t, ring, tid)
	wantStages(t, "query", qt, "request", "parse", "admission", "query", "shard_probe", "encode")
	if qt.DurationMS < resp.ElapsedMS || qt.DurationMS > resp.ElapsedMS*1.1+1 {
		t.Fatalf("query trace lasted %.3f ms, endpoint reported %.3f ms", qt.DurationMS, resp.ElapsedMS)
	}
	ids := make(map[trace.SpanID]bool)
	for _, sp := range qt.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range qt.Spans {
		if (sp.Stage == "request" && sp.Parent != 0) || (sp.Parent != 0 && !ids[sp.Parent]) {
			t.Fatalf("query trace is not one tree under the request span: %+v", qt.Spans)
		}
	}
	// A 64-page cache over a 5000-segment store cannot serve all of the
	// above from memory: the pager fill stage is somewhere in the ring.
	missed := false
	for _, tr := range ring.Traces {
		missed = missed || stagesOf(tr)["pager_miss"]
	}
	if !missed {
		t.Fatal("no pager_miss span in any kept trace")
	}
	// The insert trace carries the write path: routed update, live apply,
	// WAL append, and the group-commit wait.
	wantStages(t, "insert", traceByID(t, ring, insertID), "shard_update", "apply", "wal_append", "wal_commit")
	// The batch trace scattered: at least two distinct shards probed.
	probed := make(map[string]bool)
	for _, sp := range traceByID(t, ring, batchID).Spans {
		if sp.Stage == "shard_probe" {
			probed[sp.Tags["shard"]] = true
		}
	}
	if len(probed) < 2 {
		t.Fatalf("batch trace probed shards %v, want a fan-out over >= 2", probed)
	}

	// Stage histograms reached /metricsz, the slow log links its entries
	// to their traces, and the JSONL sink holds every kept trace.
	m := d.metricsz()
	if _, fsync := m[`segdb_stage_seconds_count{stage="wal_fsync"}`]; !fsync {
		wantSeries(t, m, `segdb_stage_seconds_count{stage="wal_commit"}`)
	}
	if id := d.statsz().SlowLog.Entries[0].TraceID; len(id) != 32 {
		t.Fatalf("newest slow entry carries no trace id: %q", id)
	}
	wantJSONL(t, sink, 3, func(line map[string]any) bool { id, _ := line["trace_id"].(string); return len(id) == 32 })

	// segload -trace emits traceparents and reports the per-stage table.
	out := runTool(t, "segload", "-addr", d.base, "-csv", csv, "-c", "2", "-duration", "2s", "-trace")
	if !strings.Contains(out, "trace stages") || !regexp.MustCompile(`(?m)^\s+request\s+[0-9]+`).MatchString(out) {
		t.Fatalf("segload -trace printed no stage table with a request row:\n%s", out)
	}
	d.term()

	wantDark(t, start(), everything)
}

// TestE2ERepl: WAL-shipping replication. A read-write leader and a
// follower bootstrapped over HTTP; load split across them; the follower
// answers batches identically once caught up, survives kill -9
// mid-stream, re-snapshots when the leader's log rotates under it, and
// still converges while the leader auto-compacts under a write burst.
func TestE2ERepl(t *testing.T) {
	needE2E(t)
	dir := t.TempDir()
	csv := dataset(t, dir, 4000)
	ldb, lwal := filepath.Join(dir, "leader.db"), filepath.Join(dir, "leader.wal")
	// The leader serves writes, so it needs the fully dynamic Solution 1.
	runTool(t, "segdb", "build", "-in", csv, "-db", ldb, "-b", "32", "-sol", "1")

	// Tracing on: the leader's replication endpoints must surface as
	// /tracez traces once a follower attaches.
	leader := startDaemon(t, "-db", ldb, "-wal", lwal, "-group-commit-window", "1ms", "-trace-sample", "1")
	startFollower := func() *daemon {
		return startDaemon(t, "-follow", leader.base, "-db", filepath.Join(dir, "f1.db"), "-follower-id", "f1",
			"-max-replica-lag", "30s", "-replica-compact-records", "2000")
	}
	f := startFollower()
	spansOf := func(stage string) (spans []trace.SpanRecord) {
		for _, tr := range leader.tracez().Traces {
			for _, sp := range tr.Spans {
				if sp.Stage == stage {
					spans = append(spans, sp)
				}
			}
		}
		return spans
	}
	// Bootstrap just streamed a checkpoint, so the leader's ring holds a
	// repl_snapshot span tagged with the bytes served. Checked now, before
	// load traffic can evict the one-off bootstrap trace.
	snaps := spansOf("repl_snapshot")
	for _, sp := range snaps {
		if n, _ := strconv.Atoi(sp.Tags["bytes"]); n <= 0 {
			t.Fatalf("repl_snapshot span served no bytes: %+v", sp)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("leader /tracez lacks the bootstrap repl_snapshot trace")
	}

	// The follower refuses writes and points the client at the leader.
	if code, h, _ := f.insert(probe, nil); code != http.StatusServiceUnavailable || h.Get("X-Segdb-Leader") != leader.base {
		t.Fatalf("follower insert: HTTP %d, X-Segdb-Leader %q; want 503 and %q", code, h.Get("X-Segdb-Leader"), leader.base)
	}

	waitConverged := func() {
		t.Helper()
		eventually(t, 30*time.Second, "the follower to converge on the leader's durable log", func() bool { return converged(leader.api, f.api) })
	}
	// differential: the same batch must answer identically — counts and ID
	// sets — on leader and follower.
	batch := server.QueryRequest{}
	for i := 0; i < 12; i++ {
		batch.Queries = append(batch.Queries, server.QuerySpec{X: float64(200 + i*300)})
	}
	differential := func() {
		t.Helper()
		lr, _ := leader.query(batch, nil)
		fr, _ := f.query(batch, nil)
		for i := range batch.Queries {
			l, g := fmt.Sprint(lr.Results[i].Count, hitIDs(lr.Results[i], noBound)), fmt.Sprint(fr.Results[i].Count, hitIDs(fr.Results[i], noBound))
			if l != g {
				t.Fatalf("leader/follower differential mismatch at x=%v:\nleader:   %s\nfollower: %s", batch.Queries[i].X, l, g)
			}
		}
	}

	// Mixed load split across both targets: writes pin to the leader,
	// reads round-robin, and the report carries each target's replication
	// status.
	r := segload(t, "-addr", leader.base, "-replica", f.base, "-csv", csv, "-c", "4", "-duration", "2s", "-write-frac", "0.2")
	if len(r.Targets) != 2 || !r.Targets[0].Primary || r.Targets[1].Requests == 0 || r.Targets[1].Repl == nil || r.Targets[1].Repl.Leader == "" {
		t.Fatalf("segload replica report: %+v", r.Targets)
	}
	waitConverged()
	differential()

	// An acknowledged leader write becomes visible on the follower.
	if code, _, up := leader.insert(probe, nil); code != http.StatusOK || !up.Found {
		t.Fatalf("leader insert not acknowledged: HTTP %d %+v", code, up)
	}
	waitConverged()
	f.wantProbe("on the follower")

	// kill -9 the follower mid-stream: more writes land while it is down,
	// and the restarted process must resume from its own durable state
	// (or re-bootstrap) and converge — nothing acknowledged may be missing.
	loaded := startSegload(t, "-addr", leader.base, "-csv", csv, "-c", "4", "-duration", "1s", "-write-frac", "0.5")
	time.Sleep(300 * time.Millisecond)
	f.kill9()
	loaded()
	f = startFollower()
	waitConverged()
	differential()

	// An online checkpoint rotates the leader's WAL out from under the
	// tailing follower: the stream answers 410 Gone and the follower
	// re-bootstraps from a fresh snapshot, then converges again.
	var ok struct {
		OK bool `json:"ok"`
	}
	if code, _ := leader.post("/v1/admin/compact", nil, nil, &ok); code != http.StatusOK || !ok.OK {
		t.Fatalf("leader online compact: HTTP %d %+v", code, ok)
	}
	segload(t, "-addr", leader.base, "-csv", csv, "-c", "2", "-duration", "1s", "-write-frac", "0.5")
	eventually(t, 30*time.Second, "the follower to re-snapshot after the WAL rotation", func() bool {
		snap, err := f.tryStatsz()
		return err == nil && snap.Repl != nil && snap.Repl.Resnapshots >= 1
	})
	waitConverged()
	differential()

	// The catch-up tail after the re-bootstrap pulled committed frames, so
	// recent leader traces carry repl_ship spans.
	if len(spansOf("repl_ship")) == 0 {
		t.Fatal("leader /tracez lacks repl_ship traces")
	}
	// Replication series ride /metricsz on both sides.
	lm := leader.metricsz()
	wantSeries(t, lm, `segdb_repl_followers`, `segdb_repl_follower_lag_bytes{follower="f1"}`,
		`segdb_repl_wal_bytes_shipped_total`, `segdb_repl_snapshots_served_total`, `segdb_wal_wedged`)
	if lm[`segdb_wal_wedged`] != 0 {
		t.Fatal("leader reports a wedged WAL")
	}
	fm := f.metricsz()
	wantSeries(t, fm, `segdb_repl_applied_lsn`, `segdb_repl_lag_bytes`, `segdb_repl_caught_up`, `segdb_repl_resnapshots_total`)
	if fm[`segdb_repl_caught_up`] != 1 {
		t.Fatal("converged follower does not report caught_up 1")
	}
	// Deep health on a caught-up follower passes its lag budget.
	if code, _, body, err := f.do(http.MethodGet, "/healthz?deep=1", nil, nil); err != nil || code != http.StatusOK {
		t.Fatalf("caught-up follower failed deep health: HTTP %d %s %v", code, body, err)
	}
	f.term()
	leader.term()
	runTool(t, "segdb", "verify", "-db", ldb)

	// Autonomous compaction: restart the leader with the WAL-threshold
	// governor on and a follower tailing, then push writes past the
	// threshold. The governor must rotate the log in the background — the
	// auto counter moves and the WAL stays bounded — and the tailing
	// follower must still converge to identical answers afterwards.
	leader = startDaemon(t, "-db", ldb, "-wal", lwal, "-group-commit-window", "1ms",
		"-auto-compact-records", "200", "-auto-compact-interval", "100ms")
	f = startFollower()
	segload(t, "-addr", leader.base, "-csv", csv, "-c", "4", "-duration", "2s", "-write-frac", "0.5")
	eventually(t, 30*time.Second, "the governor to bound the leader's WAL", func() bool {
		snap, err := leader.tryStatsz()
		return err == nil && snap.Compact.Auto >= 1 && snap.WAL.Records < 400
	})
	if c := leader.statsz().Compact; c.Failures != 0 {
		t.Fatalf("auto-compaction failures: %+v", c)
	}
	wantSeries(t, leader.metricsz(), `segdb_compact_auto_total`)
	waitConverged()
	differential()
	f.term()
	leader.term()
	runTool(t, "segdb", "verify", "-db", ldb)
}

// TestE2EShard: the sharded serving path against an unsharded reference
// over the same data — differential answers (on the slab cuts too),
// per-shard rows on both surfaces, kill -9 mid-write then restart, and
// per-slab auto-compaction.
func TestE2EShard(t *testing.T) {
	needE2E(t)
	dir := t.TempDir()
	csv := dataset(t, dir, 5000)
	shards, flat := filepath.Join(dir, "shards"), filepath.Join(dir, "flat.db")
	if out := runTool(t, "segdb", "shard", "-in", csv, "-out", shards, "-shards", "4", "-b", "32"); !strings.Contains(out, "built 4 shards") {
		t.Fatalf("segdb shard:\n%s", out)
	}
	runTool(t, "segdb", "build", "-in", csv, "-db", flat, "-b", "32", "-sol", "1")
	startSharded := func(args ...string) *daemon {
		return startDaemon(t, append([]string{"-db", shards, "-shards", "4", "-group-commit-window", "1ms"}, args...)...)
	}
	d := startSharded()
	ref := startDaemon(t, "-db", flat, "-wal", filepath.Join(dir, "flat.wal"), "-group-commit-window", "1ms")

	// Identical acknowledged inserts to both servers, including one
	// segment spanning every cut (ids stay below 2^32, segload's ID floor,
	// so the differential can filter segload's own random writes out).
	spanning := server.WireSegment{ID: probe.ID, AX: -10, AY: probe.AY, BX: 999999, BY: probe.BY}
	short := server.WireSegment{ID: 900000002, AX: 100, AY: 900011, BX: 200, BY: 900011}
	for _, seg := range []server.WireSegment{spanning, short} {
		for _, srv := range []*daemon{d, ref} {
			if code, _, up := srv.insert(seg, nil); code != http.StatusOK || !up.Found {
				t.Fatalf("insert %d on %s: HTTP %d %+v", seg.ID, srv.base, code, up)
			}
		}
	}
	// Tracing defaults off on the sharded server, scatter-gather included.
	wantDark(t, d, vseg(2500, -1e18, 1e18))

	// differential: the sharded and unsharded servers must answer every
	// query identically — probed at each slab cut (off /statsz), one step
	// to either side, and a spread of interior xs.
	var xs []float64
	for _, row := range d.statsz().Shards {
		if row.CutHi != nil {
			xs = append(xs, *row.CutHi, *row.CutHi-0.5, *row.CutHi+0.5)
		}
	}
	if len(xs) != 9 {
		t.Fatalf("statsz shows %d cut probes, want 3 cuts x 3", len(xs))
	}
	for x := 100.0; x <= 4900; x += 500 {
		xs = append(xs, x)
	}
	differential := func(bound uint64) {
		t.Helper()
		for _, x := range xs {
			got, _ := d.query(vseg(x, -1e18, 1e18), nil)
			want, _ := ref.query(vseg(x, -1e18, 1e18), nil)
			if g, w := fmt.Sprint(hitIDs(got.QueryResult, bound)), fmt.Sprint(hitIDs(want.QueryResult, bound)); g != w {
				t.Fatalf("differential diverged at x=%v: sharded %s vs unsharded %s", x, g, w)
			}
		}
	}
	differential(noBound) // nothing written yet but the shared inserts

	// Mixed read/write load through the scatter-gather Updater.
	segload(t, "-addr", d.base, "-csv", csv, "-c", "4", "-duration", "2s", "-write-frac", "0.2")

	// /statsz carries one row per shard, segment counts summing to the
	// store total, and live WAL counters.
	snap := d.statsz()
	var segs int
	var records int64
	for _, row := range snap.Shards {
		segs += row.Segments
		records += row.WALRecords
		if row.WALWedged {
			t.Fatalf("shard %d reports a wedged WAL", row.Shard)
		}
	}
	if len(snap.Shards) != 4 || segs != snap.Segments || records == 0 || snap.Endpoints["query"].Requests == 0 || snap.Segments <= 5000 {
		t.Fatalf("statsz shard rows failed the sanity check: %+v", snap)
	}
	wantSeries(t, d.metricsz(), `segdb_index_shard_segments{shard="0"}`, `segdb_index_shard_segments{shard="3"}`,
		`segdb_index_shard_spanners{shard="1"}`, `segdb_index_shard_wal_records{shard="2"}`, `segdb_index_shard_hit_ratio{shard="0"}`)

	// kill -9 the sharded daemon in the middle of a write burst. The
	// per-shard WALs must bring every shard back consistent: the store
	// verifies, acknowledged writes survive, and answers (net of
	// segload's own surviving writes) still match the unsharded server.
	burst := exec.Command(tool(t, "segload"), "-addr", d.base, "-csv", csv, "-c", "4", "-duration", "10s", "-write-frac", "0.5")
	if err := burst.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	d.kill9()
	burst.Process.Kill() // its report would only count the dead server's refusals
	burst.Wait()
	runTool(t, "segdb", "verify", "-db", shards)
	d = startSharded()
	if resp, _ := d.query(vseg(500, 900000, 900002), nil); resp.Count != 1 || resp.Hits[0].ID != spanning.ID {
		t.Fatalf("acknowledged spanning insert lost across kill -9: %+v", resp.QueryResult)
	}
	differential(loadFloor)

	// A graceful stop checkpoints every shard and the store still verifies.
	d.term()
	runTool(t, "segdb", "verify", "-db", shards)

	// Autonomous compaction, sharded: per-slab WAL thresholds, writes
	// until they trip. The governor staggers per-shard rotations in the
	// background — the auto counter moves, every slab's WAL ends up
	// bounded — and answers still match the unsharded server.
	d = startSharded("-auto-compact-records", "200", "-auto-compact-interval", "100ms")
	segload(t, "-addr", d.base, "-csv", csv, "-c", "4", "-duration", "2s", "-write-frac", "0.5")
	eventually(t, 30*time.Second, "the governor to bound every shard's WAL", func() bool {
		snap, err := d.tryStatsz()
		if err != nil || snap.Compact.Auto < 1 {
			return false
		}
		for _, row := range snap.Shards {
			if row.WALRecords >= 400 {
				return false
			}
		}
		return true
	})
	if c := d.statsz().Compact; c.Failures != 0 {
		t.Fatalf("auto-compaction failures: %+v", c)
	}
	wantSeries(t, d.metricsz(), `segdb_compact_auto_total`)
	differential(loadFloor)
	d.term()
	ref.term()
	runTool(t, "segdb", "verify", "-db", shards)
}
