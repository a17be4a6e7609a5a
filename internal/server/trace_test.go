package server_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"segdb/internal/server"
	"segdb/internal/trace"
	"segdb/internal/workload"
)

// postTraced posts a query with an explicit traceparent header ("" sends
// none) and returns the response with its body decoded when 200.
func postTraced(t *testing.T, url, traceparent string, req server.QueryRequest) (*http.Response, server.QueryResponse) {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set(trace.Header, traceparent)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr server.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, qr
}

func fetchTracez(t *testing.T, url string) trace.RingSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez: HTTP %d", resp.StatusCode)
	}
	var ring trace.RingSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	return ring
}

// TestServeTraceparentRoundTrip: an inbound W3C traceparent donates its
// trace ID, the response carries a traceparent for the same trace, and
// /tracez retains the span tree — root, parse, admission, query, encode —
// with every child parented under the root and the trace linked from the
// slow log by its ID.
func TestServeTraceparentRoundTrip(t *testing.T) {
	hs, _, segs := testServer(t, server.Config{
		TraceSample: 1,
		SlowLatency: 1, // log everything: the slow entry must carry the trace id
		SlowLogSize: 8,
	})
	box := workload.BBox(segs)

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp, _ := postTraced(t, hs.URL, inbound, server.QueryRequest{
		QuerySpec: server.QuerySpec{X: box.MinX + (box.MaxX-box.MinX)/2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: HTTP %d", resp.StatusCode)
	}
	outbound := resp.Header.Get(trace.Header)
	otid, _, sampled, ok := trace.ParseTraceparent(outbound)
	if !ok || !sampled {
		t.Fatalf("response traceparent %q must parse as sampled", outbound)
	}
	if otid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("response trace id %s, want the inbound one", otid)
	}

	ring := fetchTracez(t, hs.URL)
	if ring.SampleRate != 1 || ring.TracesKept < 1 {
		t.Fatalf("ring: rate %v, kept %d", ring.SampleRate, ring.TracesKept)
	}
	ts := ring.Traces[0]
	if ts.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("kept trace id %s, want the inbound one", ts.TraceID)
	}
	if ts.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("remote parent %q, want the caller's span id", ts.RemoteParent)
	}

	byStage := map[string][]trace.SpanRecord{}
	for _, sp := range ts.Spans {
		byStage[sp.Stage] = append(byStage[sp.Stage], sp)
	}
	var rootID trace.SpanID
	if roots := byStage["request"]; len(roots) != 1 || roots[0].Parent != 0 {
		t.Fatalf("request spans: %+v", roots)
	} else {
		rootID = roots[0].ID
	}
	for _, stage := range []string{"parse", "admission", "query", "encode"} {
		sps := byStage[stage]
		if len(sps) != 1 {
			t.Fatalf("%d %s spans, want 1 (spans: %+v)", len(sps), stage, ts.Spans)
		}
		if sps[0].Parent != rootID {
			t.Fatalf("%s span parented at %d, want root %d", stage, sps[0].Parent, rootID)
		}
	}
	// The trace's stage time nests inside the request: every span ends at
	// or before the root does.
	rootEnd := byStage["request"][0].StartUS + byStage["request"][0].DurUS
	for _, sp := range ts.Spans {
		if sp.StartUS+sp.DurUS > rootEnd+1 { // 1µs slack for float rounding
			t.Fatalf("span %s overruns the root: %+v", sp.Stage, sp)
		}
	}

	// The slow log links back: its entry carries this trace's ID.
	var snap server.Snapshot
	sresp, err := http.Get(hs.URL + "/statsz?slow=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if snap.SlowLog == nil || len(snap.SlowLog.Entries) == 0 {
		t.Fatal("no slow entries with a log-everything threshold")
	}
	if got := snap.SlowLog.Entries[0].TraceID; got != ts.TraceID {
		t.Fatalf("slow entry trace id %q, want %q", got, ts.TraceID)
	}
}

// TestServeTraceSampleZero: rate 0 disables tracing end to end — no
// response traceparent even for sampled callers, an empty /tracez, and
// no stage histograms on /statsz.
func TestServeTraceSampleZero(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{})
	box := workload.BBox(segs)
	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp, _ := postTraced(t, hs.URL, inbound, server.QueryRequest{
		QuerySpec: server.QuerySpec{X: box.MinX + (box.MaxX-box.MinX)/2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: HTTP %d", resp.StatusCode)
	}
	if h := resp.Header.Get(trace.Header); h != "" {
		t.Fatalf("tracing disabled but response carries traceparent %q", h)
	}
	ring := fetchTracez(t, hs.URL)
	if ring.SampleRate != 0 || ring.TracesStarted != 0 || len(ring.Traces) != 0 {
		t.Fatalf("disabled tracer ring: %+v", ring)
	}
	if st := srv.Snapshot().Stages; st != nil {
		t.Fatalf("disabled tracer produced stage histograms: %v", st)
	}
}

// TestBatchTraceCancelledSpans: a batch that dies on its deadline still
// yields a complete trace — every subquery span present, parented and
// ended, tagged cancelled — and a slow-log entry whose batch attribution
// counts the cancellations. Runs under -race: batch workers append spans
// to one trace concurrently.
func TestBatchTraceCancelledSpans(t *testing.T) {
	hs, _, segs := testServer(t, server.Config{
		TraceSample:    1,
		SlowLatency:    1,
		SlowLogSize:    8,
		DefaultTimeout: time.Nanosecond, // expired before the first subquery
	})
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(21))

	var req server.QueryRequest
	const n = 8
	for i := 0; i < n; i++ {
		req.Queries = append(req.Queries, server.QuerySpec{
			X: box.MinX + rng.Float64()*(box.MaxX-box.MinX),
		})
	}
	req.Parallelism = 4
	resp, _ := postTraced(t, hs.URL, "", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline batch: HTTP %d, want 503", resp.StatusCode)
	}

	ring := fetchTracez(t, hs.URL)
	if len(ring.Traces) == 0 {
		t.Fatal("no trace kept at rate 1")
	}
	ts := ring.Traces[0]
	var rootID trace.SpanID
	for _, sp := range ts.Spans {
		if sp.Stage == "request" {
			rootID = sp.ID
		}
	}
	if rootID == 0 {
		t.Fatalf("no root span in %+v", ts.Spans)
	}
	var cancelled int
	for _, sp := range ts.Spans {
		if sp.Stage != "query" {
			continue
		}
		if sp.Parent != rootID {
			t.Fatalf("subquery span parented at %d, want root %d", sp.Parent, rootID)
		}
		if sp.Tags["cancelled"] == "true" {
			cancelled++
		}
	}
	if cancelled != n {
		t.Fatalf("%d cancelled subquery spans, want %d", cancelled, n)
	}

	// The slow-log entry attributes the batch: all n subqueries cancelled.
	var snap server.Snapshot
	sresp, err := http.Get(hs.URL + "/statsz?slow=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if snap.SlowLog == nil || len(snap.SlowLog.Entries) == 0 {
		t.Fatal("no slow entry for the deadline batch")
	}
	e := snap.SlowLog.Entries[0]
	if e.Status != "deadline" || !strings.HasPrefix(e.Query, "batch[") {
		t.Fatalf("slow entry: %+v", e)
	}
	if e.Batch == nil || e.Batch.Cancelled != n {
		t.Fatalf("batch attribution: %+v, want %d cancelled", e.Batch, n)
	}
	if e.TraceID != ts.TraceID {
		t.Fatalf("slow entry trace id %q, want %q", e.TraceID, ts.TraceID)
	}
}

// TestBatchSlowLogAttribution: a completing batch's slow entry names its
// slowest and heaviest subqueries with indexes inside the batch.
func TestBatchSlowLogAttribution(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{SlowLatency: 1, SlowLogSize: 8})
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(22))
	var req server.QueryRequest
	const n = 6
	for i := 0; i < n; i++ {
		req.Queries = append(req.Queries, server.QuerySpec{
			X: box.MinX + rng.Float64()*(box.MaxX-box.MinX),
		})
	}
	resp, _ := postTraced(t, hs.URL, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	slow := srv.SlowLog().Snapshot()
	if len(slow.Entries) == 0 {
		t.Fatal("no slow entry with a log-everything threshold")
	}
	e := slow.Entries[0]
	if e.Batch == nil {
		t.Fatalf("batch entry lacks attribution: %+v", e)
	}
	b := e.Batch
	if b.SlowestIndex < 0 || b.SlowestIndex >= n || b.HeaviestIndex < 0 || b.HeaviestIndex >= n {
		t.Fatalf("attribution indexes out of range: %+v", b)
	}
	if b.SlowestMS < 0 || b.HeaviestPages < 0 || b.Cancelled != 0 {
		t.Fatalf("attribution values: %+v", b)
	}
	if e.TraceID != "" {
		t.Fatalf("untraced batch carries trace id %q", e.TraceID)
	}
	// A single query's entry carries no batch attribution.
	postTraced(t, hs.URL, "", server.QueryRequest{
		QuerySpec: server.QuerySpec{X: box.MinX},
	})
	if e := srv.SlowLog().Snapshot().Entries[0]; e.Batch != nil {
		t.Fatalf("single-query entry carries batch attribution: %+v", e)
	}
}

// TestServeStageSecondsPrometheus: with tracing on, /metricsz exposes
// the per-stage histogram family — strictly parsed, HELP/TYPE announced,
// bucket counts monotone — and its sums agree with the /statsz stage
// snapshot, the same registry rendered twice.
func TestServeStageSecondsPrometheus(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{TraceSample: 1})
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		resp, _ := postTraced(t, hs.URL, "", server.QueryRequest{
			QuerySpec: server.QuerySpec{X: box.MinX + rng.Float64()*(box.MaxX-box.MinX)},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: HTTP %d", i, resp.StatusCode)
		}
	}

	text := server.PromText(srv.Snapshot())
	samples, types := parsePromStrict(t, text)
	checkPromHistograms(t, samples, types)
	if types["segdb_stage_seconds"] != "histogram" {
		t.Fatalf("segdb_stage_seconds type %q, want histogram", types["segdb_stage_seconds"])
	}
	if !strings.Contains(text, "# HELP segdb_stage_seconds ") {
		t.Fatal("segdb_stage_seconds exported without HELP")
	}

	stages := map[string]struct{ count, sum float64 }{}
	for _, s := range samples {
		st := s.Labels["stage"]
		if st == "" {
			continue
		}
		v := stages[st]
		switch s.Name {
		case "segdb_stage_seconds_count":
			v.count = s.Value
		case "segdb_stage_seconds_sum":
			v.sum = s.Value
		}
		stages[st] = v
	}
	snap := srv.Snapshot()
	if len(snap.Stages) == 0 {
		t.Fatal("no stage snapshots with tracing on")
	}
	for _, stage := range []string{"request", "parse", "admission", "query", "encode"} {
		hs, ok := snap.Stages[stage]
		if !ok || hs.Count < 10 {
			t.Fatalf("statsz stage %q: %+v (want ≥10 observations)", stage, hs)
		}
		ps, ok := stages[stage]
		if !ok {
			t.Fatalf("stage %q missing from /metricsz", stage)
		}
		if ps.count != float64(hs.Count) {
			t.Fatalf("stage %q count: prom %v, statsz %d", stage, ps.count, hs.Count)
		}
		wantSum := hs.SumMS / 1e3
		if diff := ps.sum - wantSum; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("stage %q sum: prom %v s, statsz %v s", stage, ps.sum, wantSum)
		}
	}
	// Stages that never ran are omitted, not exported as zeros.
	if _, ok := stages["wal_fsync"]; ok {
		t.Fatal("read-only traffic exported a wal_fsync stage")
	}
}
