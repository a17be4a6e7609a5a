package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"segdb"
	"segdb/internal/server"
	"segdb/internal/shard"
	"segdb/internal/trace"
	"segdb/internal/workload"
)

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Verbose() {
		log.SetOutput(io.Discard) // run logs its lifecycle; keep passing runs quiet
	}
	code := m.Run()
	removeTools()
	os.Exit(code)
}

// api is a typed client of one segdbd — an in-process run or a child
// process, the tests cannot tell — and the only place they speak HTTP.
type api struct {
	t    testing.TB
	base string // http://host:port
}

// do sends one request and returns the status, headers and body; a
// non-nil body is sent as JSON.
func (a api) do(method, path string, hdr map[string]string, body any) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// getJSON fetches path into v; the error is non-nil unless it answered
// 200 with a document that decodes.
func (a api) getJSON(path string, v any) error {
	code, _, raw, err := a.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, code, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// post sends body to a JSON endpoint and decodes a 200 answer into out.
func (a api) post(path string, hdr map[string]string, body, out any) (int, http.Header) {
	a.t.Helper()
	code, h, raw, err := a.do(http.MethodPost, path, hdr, body)
	if err != nil {
		a.t.Fatalf("POST %s: %v", path, err)
	}
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			a.t.Fatalf("POST %s: undecodable answer %q: %v", path, raw, err)
		}
	}
	return code, h
}

// query runs one /v1/query request and insists on 200.
func (a api) query(req server.QueryRequest, hdr map[string]string) (server.QueryResponse, http.Header) {
	a.t.Helper()
	var resp server.QueryResponse
	code, h := a.post("/v1/query", hdr, &req, &resp)
	if code != http.StatusOK {
		a.t.Fatalf("query %+v: HTTP %d", req, code)
	}
	return resp, h
}

func (a api) insert(seg server.WireSegment, hdr map[string]string) (int, http.Header, server.UpdateResponse) {
	a.t.Helper()
	var resp server.UpdateResponse
	code, h := a.post("/v1/insert", hdr, &server.UpdateRequest{WireSegment: seg}, &resp)
	return code, h, resp
}

func (a api) tryStatsz() (server.Snapshot, error) {
	var snap server.Snapshot
	return snap, a.getJSON("/statsz?slow=1", &snap)
}

// statsz is /statsz?slow=1 as the typed document the server renders it
// from.
func (a api) statsz() server.Snapshot {
	a.t.Helper()
	snap, err := a.tryStatsz()
	if err != nil {
		a.t.Fatalf("statsz: %v", err)
	}
	return snap
}

func (a api) tracez() trace.RingSnapshot {
	a.t.Helper()
	var ring trace.RingSnapshot
	if err := a.getJSON("/tracez", &ring); err != nil {
		a.t.Fatalf("tracez: %v", err)
	}
	return ring
}

// metricsz scrapes /metricsz through the strict exposition-format parser
// — a sample without a # TYPE, an interleaved family or a malformed label
// fails the test — and returns the samples by series, labels included:
// `segdb_requests_total{endpoint="query"}` → value.
func (a api) metricsz() map[string]float64 {
	a.t.Helper()
	code, _, raw, err := a.do(http.MethodGet, "/metricsz", nil, nil)
	if err != nil || code != http.StatusOK {
		a.t.Fatalf("metricsz: HTTP %d, %v", code, err)
	}
	samples, _, err := server.ParsePrometheus(string(raw))
	if err != nil {
		a.t.Fatalf("/metricsz is not valid exposition format: %v", err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[seriesKey(s)] = s.Value
	}
	return out
}

// seriesKey renders a sample's name and labels the way the exposition
// format does, labels in the fixed order the tests spell them in.
func seriesKey(s server.PromSample) string {
	key := s.Name
	var labels []string
	for _, k := range []string{"endpoint", "stage", "shard", "follower", "le"} {
		if v, ok := s.Labels[k]; ok {
			labels = append(labels, k+`="`+v+`"`)
		}
	}
	if len(labels) > 0 {
		key += "{" + strings.Join(labels, ",") + "}"
	}
	return key
}

func ptr(v float64) *float64 { return &v }

// vseg is the wire form of a bounded vertical query segment.
func vseg(x, ylo, yhi float64) server.QueryRequest {
	return server.QueryRequest{QuerySpec: server.QuerySpec{X: x, YLo: ptr(ylo), YHi: ptr(yhi)}}
}

// The probe is a segment far above any generated data (NCT-safe by
// construction) that a vertical query at probeQuery finds and nothing
// else does.
var (
	probe      = server.WireSegment{ID: 900000001, AX: 100, AY: 900001, BX: 200, BY: 900001}
	probeQuery = vseg(150, 900000, 900002)
)

// wantProbe asserts the probe — and only it — answers probeQuery.
func (a api) wantProbe(when string) {
	a.t.Helper()
	resp, _ := a.query(probeQuery, nil)
	if resp.Count != 1 || len(resp.Hits) != 1 || resp.Hits[0].ID != probe.ID {
		a.t.Fatalf("%s: probe query answered %+v, want exactly segment %d", when, resp.QueryResult, probe.ID)
	}
}

// walIsEmpty asserts a WAL file holds its bare header and no record: what
// a shutdown checkpoint leaves behind.
func walIsEmpty(t testing.TB, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 8 {
		t.Fatalf("%s: %d bytes after a graceful stop, want the bare header (<= 8): WAL not rotated", path, fi.Size())
	}
}

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring; "" wants success
		check   func(t *testing.T, c config)
	}{
		{name: "defaults", check: func(t *testing.T, c config) {
			if c.cache != 256 || c.server.MaxInflight != 64 || c.server.MaxInflightUpdates != 16 ||
				c.server.SlowLatency != 250*time.Millisecond || c.server.MaxReplicaLag != 10*time.Second {
				t.Fatalf("defaults: %+v", c)
			}
		}},
		{name: "shards excludes wal", args: []string{"-shards", "4", "-wal", "x.wal"}, wantErr: "-shards is exclusive"},
		{name: "shards excludes follow", args: []string{"-shards", "4", "-follow", "http://l"}, wantErr: "-shards is exclusive"},
		{name: "follower may name its local wal", args: []string{"-follow", "http://l", "-wal", "f.wal"}},
		{name: "trace-log needs sampling", args: []string{"-trace-log", "t.jsonl"}, wantErr: "-trace-log requires -trace-sample"},
		{name: "trace-log with sampling", args: []string{"-trace-log", "t.jsonl", "-trace-sample", "0.5"}},
		{name: "slow-latency 0 logs everything", args: []string{"-slow-latency", "0"}, check: func(t *testing.T, c config) {
			if c.server.SlowLatency != time.Nanosecond {
				t.Fatalf("SlowLatency = %v, want 1ns (0 would select the server default)", c.server.SlowLatency)
			}
		}},
		{name: "negative slow-latency stays off", args: []string{"-slow-latency", "-1s"}, check: func(t *testing.T, c config) {
			if c.server.SlowLatency != -time.Second {
				t.Fatalf("SlowLatency = %v, want -1s", c.server.SlowLatency)
			}
		}},
		{name: "cache splits across shards", args: []string{"-shards", "4", "-cache", "256"}, check: func(t *testing.T, c config) {
			if c.cache != 64 {
				t.Fatalf("per-shard cache = %d, want 64", c.cache)
			}
		}},
		{name: "per-shard cache floor", args: []string{"-shards", "8", "-cache", "64"}, check: func(t *testing.T, c config) {
			if c.cache != 16 {
				t.Fatalf("per-shard cache = %d, want the floor of 16", c.cache)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseFlags(tc.args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("parseFlags(%q) error = %v, want one containing %q", tc.args, err, tc.wantErr)
			}
			if tc.check != nil {
				tc.check(t, c)
			}
		})
	}
}

// TestReadmeFlagTables pins the README's flag tables to the FlagSet
// `segdbd -h` prints: every row names a registered flag, and every flag of
// a family the README tabulates (compaction governor, tracing) has a row —
// so deleting, renaming or adding such a flag fails here until the table
// follows.
func TestReadmeFlagTables(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var c config
	fs := newFlagSet(&c)
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		rows[m[1]] = true
		if fs.Lookup(m[1]) == nil {
			t.Errorf("README tabulates -%s, which segdbd does not have", m[1])
		}
	}
	if len(rows) == 0 {
		t.Fatal("no flag-table rows found in README.md")
	}
	fs.VisitAll(func(f *flag.Flag) {
		for _, family := range []string{"auto-compact-", "compact-", "slow-compact", "trace-"} {
			if strings.HasPrefix(f.Name, family) && !rows[f.Name] {
				t.Errorf("segdbd has -%s but the README flag tables do not", f.Name)
			}
		}
	})
}

// testSegments is a small NCT dataset: stacked horizontal layers over
// x in [0,1000), the shape `segdb gen -kind layers` writes.
func testSegments() []segdb.Segment {
	return workload.Layers(rand.New(rand.NewSource(5)), 10, 40, 1000)
}

func buildIndex(t *testing.T, path string, sol int) {
	t.Helper()
	if err := segdb.BuildIndexFile(path, segdb.Options{B: 16}, sol, testSegments()); err != nil {
		t.Fatal(err)
	}
}

// startRun boots run in process on a free loopback port and returns its
// client and a stop function: cancel, wait for the graceful shutdown,
// return run's error.
func startRun(t *testing.T, args ...string) (api, func() error) {
	t.Helper()
	cfg, err := parseFlags(append([]string{"-addr", "127.0.0.1:0", "-drain-wait", "10s"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(a net.Addr) { addrc <- a }) }()
	var (
		once   sync.Once
		runErr error
	)
	stop := func() error {
		once.Do(func() {
			cancel()
			runErr = <-done
		})
		return runErr
	}
	t.Cleanup(func() { stop() })
	var addr net.Addr
	select {
	case addr = <-addrc:
	case err := <-done:
		once.Do(func() { cancel(); runErr = err })
		t.Fatalf("run %q exited before listening: %v", args, err)
	}
	return api{t, "http://" + addr.String()}, stop
}

// filesOpenUnder lists this process's descriptors that point into dir —
// after a graceful stop there must be none: the store, the WAL and the
// sinks are closed.
func filesOpenUnder(t *testing.T, dir string) []string {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to audit: %v", err)
	}
	var open []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			open = append(open, target)
		}
	}
	return open
}

// stopClean stops a run and asserts the graceful shutdown succeeded and
// closed everything it had opened under dir.
func stopClean(t *testing.T, stop func() error, dir string) {
	t.Helper()
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if open := filesOpenUnder(t, dir); len(open) > 0 {
		t.Fatalf("files still open after shutdown: %v", open)
	}
}

func TestRunReadOnly(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "index.db")
	buildIndex(t, db, 2)
	d, stop := startRun(t, "-db", db, "-verify", "-slow-latency", "0", "-slow-log", filepath.Join(dir, "slow.jsonl"))

	resp, _ := d.query(server.QueryRequest{QuerySpec: server.QuerySpec{X: 500}}, nil)
	want := len(segdb.FilterHits(segdb.VLine(500), testSegments()))
	if resp.Count != want || want == 0 {
		t.Fatalf("stab at 500: %d hits, brute force says %d", resp.Count, want)
	}
	if code, _, _ := d.insert(probe, nil); code != http.StatusNotImplemented {
		t.Fatalf("insert on a read-only server: HTTP %d, want 501", code)
	}
	snap := d.statsz()
	if snap.Endpoints["query"].Requests != 1 || snap.WAL != nil || snap.Segments != len(testSegments()) {
		t.Fatalf("statsz: %d query requests, wal %v, %d segments", snap.Endpoints["query"].Requests, snap.WAL, snap.Segments)
	}
	stopClean(t, stop, dir)
	if raw, err := os.ReadFile(filepath.Join(dir, "slow.jsonl")); err != nil || !bytes.Contains(raw, []byte(`"endpoint":"query"`)) {
		t.Fatalf("slow-log sink after shutdown: %q, %v", raw, err)
	}
}

func TestRunLeader(t *testing.T) {
	dir := t.TempDir()
	db, wal := filepath.Join(dir, "rw.db"), filepath.Join(dir, "rw.wal")
	buildIndex(t, db, 1)
	d, stop := startRun(t, "-db", db, "-wal", wal, "-verify")

	if code, _, up := d.insert(probe, nil); code != http.StatusOK || !up.Found {
		t.Fatalf("insert: HTTP %d %+v", code, up)
	}
	d.wantProbe("after insert")
	if snap := d.statsz(); snap.WAL == nil || snap.WAL.Records != 1 || snap.ReplLeader == nil || snap.Compact == nil {
		t.Fatalf("statsz of a leader: wal %+v, repl_leader %v, compact %v", snap.WAL, snap.ReplLeader, snap.Compact)
	}
	stopClean(t, stop, dir)

	// The shutdown checkpoint moved the insert into the index file and
	// rotated the log, so a reopen replays nothing and still has it.
	walIsEmpty(t, wal)
	if err := segdb.VerifyIndexFile(db); err != nil {
		t.Fatalf("checkpoint after graceful stop: %v", err)
	}
	re, err := segdb.OpenDurableIndex(db, wal, segdb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if records, _, _ := re.WALStats(); records != 0 || re.Index().Len() != len(testSegments())+1 {
		t.Fatalf("reopen: %d wal records, %d segments; want 0 and %d", records, re.Index().Len(), len(testSegments())+1)
	}
}

// TestRunFollower boots a leader and, with -verify, a replica of it on an
// empty directory: the regression test for verification running before
// the bootstrap had downloaded anything to verify.
func TestRunFollower(t *testing.T) {
	dir := t.TempDir()
	ldb := filepath.Join(dir, "leader.db")
	buildIndex(t, ldb, 1)
	leader, stopLeader := startRun(t, "-db", ldb, "-wal", filepath.Join(dir, "leader.wal"))
	fdir := filepath.Join(dir, "replica")
	if err := os.Mkdir(fdir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, stopFollower := startRun(t, "-follow", leader.base, "-db", filepath.Join(fdir, "f.db"), "-follower-id", "f1", "-verify")

	code, h, _ := f.insert(probe, nil)
	if code != http.StatusServiceUnavailable || h.Get("X-Segdb-Leader") != leader.base {
		t.Fatalf("insert on a replica: HTTP %d, X-Segdb-Leader %q; want 503 and %q", code, h.Get("X-Segdb-Leader"), leader.base)
	}
	if code, _, up := leader.insert(probe, nil); code != http.StatusOK || !up.Found {
		t.Fatalf("leader insert: HTTP %d %+v", code, up)
	}
	eventually(t, 10*time.Second, "the replica to apply the leader's insert", func() bool { return converged(leader, f) })
	f.wantProbe("on the replica")

	stopClean(t, stopFollower, fdir)
	stopClean(t, stopLeader, dir)
	walIsEmpty(t, filepath.Join(dir, "leader.wal"))
}

func TestRunSharded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "shards")
	s, err := shard.Create(dir, shard.Config{Shards: 2, Durable: segdb.DurableOptions{Build: segdb.Options{B: 16}}}, testSegments())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	d, stop := startRun(t, "-db", dir, "-shards", "2", "-verify")

	spanning := server.WireSegment{ID: probe.ID, AX: -10, AY: probe.AY, BX: 2000, BY: probe.BY}
	if code, _, up := d.insert(spanning, nil); code != http.StatusOK || !up.Found {
		t.Fatalf("insert: HTTP %d %+v", code, up)
	}
	d.wantProbe("after a cut-spanning insert")
	snap := d.statsz()
	if len(snap.Shards) != 2 || snap.Shards[0].Segments+snap.Shards[1].Segments != snap.Segments || snap.ReplLeader != nil {
		t.Fatalf("statsz of a sharded store: %d shard rows, %d segments, repl_leader %v", len(snap.Shards), snap.Segments, snap.ReplLeader)
	}
	stopClean(t, stop, dir)
	wals, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(wals) != 2 {
		t.Fatalf("shard WALs: %v", wals)
	}
	for _, w := range wals {
		walIsEmpty(t, w)
	}
	if err := shard.Verify(dir); err != nil {
		t.Fatalf("store after graceful stop: %v", err)
	}
}

// TestRunRefusesBeforeServing covers the error returns that used to be
// log.Fatalf mid-wiring: a damaged file under -verify, and a sink that
// cannot be opened.
func TestRunRefusesBeforeServing(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "index.db")
	buildIndex(t, db, 2)
	raw, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(db, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"refusing to serve": {"-db", db, "-verify"},
		"slow queries log":  {"-db", db, "-slow-log", filepath.Join(dir, "no/such/dir/slow.jsonl")},
	} {
		cfg, err := parseFlags(append([]string{"-addr", "127.0.0.1:0"}, args...))
		if err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), cfg, nil); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("run %q = %v, want an error containing %q", args, err, name)
		}
	}
	if open := filesOpenUnder(t, dir); len(open) > 0 {
		t.Fatalf("files left open by a refused start: %v", open)
	}
}

func TestExitSummary(t *testing.T) {
	snap := server.Snapshot{
		Segments:  12,
		Endpoints: map[string]server.EndpointSnapshot{"query": {Requests: 3}, "insert": {Requests: 2}},
		WAL:       &server.WALSnapshot{},
		Shards:    make([]shard.Status, 4),
		Compact:   &server.CompactSnapshot{Total: 1, Auto: 1},
	}
	want := "segdbd: served 3 queries, 0 batches, shed 0; store hit ratio 0.000\n" +
		"segdbd: served 2 inserts, 0 deletes; checkpointed 12 segments across 4 shards\n" +
		"segdbd: 1 compactions (1 auto, 0 failed, 0 deferred)\n"
	if got := exitSummary(snap); got != want {
		t.Fatalf("exitSummary:\n%s\nwant:\n%s", got, want)
	}
}

// eventually polls cond until it holds, failing the test after timeout.
func eventually(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// converged: the follower is on the leader's epoch with every durable
// byte applied. caught_up alone is not enough — it can be a verdict about
// an older durable watermark.
func converged(leader, follower api) bool {
	ls, lerr := leader.tryStatsz()
	fs, ferr := follower.tryStatsz()
	return lerr == nil && ferr == nil && ls.ReplLeader != nil && fs.Repl != nil &&
		fs.Repl.Epoch == ls.ReplLeader.Epoch && fs.Repl.AppliedLSN >= ls.ReplLeader.DurableLSN
}
