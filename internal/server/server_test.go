package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"segdb"
	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/server"
	"segdb/internal/trace"
	"segdb/internal/workload"
)

// testServer builds a small Solution-2 index in memory and serves it.
func testServer(t testing.TB, cfg server.Config) (*httptest.Server, *server.Server, []segdb.Segment) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	segs := workload.Grid(rng, 10, 10, 0.9, 0.2)
	st := segdb.NewMemStore(16, 64)
	ix, err := segdb.CreateSolution2(st, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(segdb.SynchronizedOn(ix, st), st, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, srv, segs
}

func postQuery(t *testing.T, url string, req server.QueryRequest) (*http.Response, server.QueryResponse) {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
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

func ptr(v float64) *float64 { return &v }

// TestServeCorrectness cross-checks HTTP answers — segment, ray, line and
// batch — against CollectQuery ground truth, IDs included.
func TestServeCorrectness(t *testing.T) {
	hs, _, segs := testServer(t, server.Config{})
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(4))

	specOf := func(q segdb.Query) server.QuerySpec {
		s := server.QuerySpec{X: q.X}
		// Reconstruct open bounds by omission.
		if q.YLo > -1e300 {
			s.YLo = ptr(q.YLo)
		}
		if q.YHi < 1e300 {
			s.YHi = ptr(q.YHi)
		}
		return s
	}

	queries := workload.RandomVS(rng, 30, box, 4)
	queries = append(queries,
		segdb.VLine(box.MinX+(box.MaxX-box.MinX)/2),
		segdb.VRayUp(box.MinX+(box.MaxX-box.MinX)/3, 1),
		segdb.VRayDown(box.MinX+(box.MaxX-box.MinX)/3, 1),
	)
	for _, q := range queries {
		want := segdb.FilterHits(q, segs)
		resp, qr := postQuery(t, hs.URL, server.QueryRequest{QuerySpec: specOf(q)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %v: HTTP %d", q, resp.StatusCode)
		}
		if qr.Count != len(want) || len(qr.Hits) != len(want) {
			t.Fatalf("query %v: got %d hits, want %d", q, qr.Count, len(want))
		}
		wantIDs := make(map[uint64]bool, len(want))
		for _, s := range want {
			wantIDs[s.ID] = true
		}
		for _, h := range qr.Hits {
			if !wantIDs[h.ID] {
				t.Fatalf("query %v: unexpected hit id %d", q, h.ID)
			}
		}
	}

	// Batch form: one request, index-aligned results.
	var batch server.QueryRequest
	for _, q := range queries {
		batch.Queries = append(batch.Queries, specOf(q))
	}
	batch.Parallelism = 4
	resp, qr := postQuery(t, hs.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	if len(qr.Results) != len(queries) {
		t.Fatalf("batch: %d results, want %d", len(qr.Results), len(queries))
	}
	for i, q := range queries {
		if want := len(segdb.FilterHits(q, segs)); qr.Results[i].Count != want {
			t.Fatalf("batch[%d] %v: got %d, want %d", i, q, qr.Results[i].Count, want)
		}
	}

	// omit_hits returns counts without payloads.
	resp, qr = postQuery(t, hs.URL, server.QueryRequest{
		QuerySpec: server.QuerySpec{X: queries[0].X}, OmitHits: true,
	})
	if resp.StatusCode != http.StatusOK || qr.Hits != nil {
		t.Fatalf("omit_hits: HTTP %d, hits %v", resp.StatusCode, qr.Hits)
	}
}

// blockingIndex parks every query until release is closed, making
// admission states reproducible.
type blockingIndex struct {
	entered chan struct{}
	release chan struct{}
	hits    []segdb.Segment
}

func (b *blockingIndex) Query(q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	b.entered <- struct{}{}
	<-b.release
	for _, s := range b.hits {
		emit(s)
	}
	return segdb.QueryStats{Reported: len(b.hits)}, nil
}

func (b *blockingIndex) Insert(segdb.Segment) error         { return segdb.ErrUnsupported }
func (b *blockingIndex) Delete(segdb.Segment) (bool, error) { return false, segdb.ErrUnsupported }
func (b *blockingIndex) Len() int                           { return len(b.hits) }
func (b *blockingIndex) Collect() ([]segdb.Segment, error)  { return b.hits, nil }
func (b *blockingIndex) Drop() error                        { return nil }

// TestAdmissionShedsWith429 saturates the gate and asserts excess
// requests shed immediately with 429 + Retry-After while the admitted
// ones complete with their answers.
func TestAdmissionShedsWith429(t *testing.T) {
	bix := &blockingIndex{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
		hits:    []segdb.Segment{segdb.NewSegment(7, 0, 0, 1, 1)},
	}
	srv := server.New(segdb.Synchronized(bix), nil, server.Config{
		MaxInflight: 2, RetryAfter: 3 * time.Second, DefaultTimeout: time.Minute,
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	req := func() (*http.Response, error) {
		return http.Post(hs.URL+"/v1/query", "application/json",
			bytes.NewReader([]byte(`{"x":0.5}`)))
	}

	// Fill both slots; wait until the queries are inside the index.
	type result struct {
		code  int
		count int
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := req()
			if err != nil {
				results <- result{code: -1}
				return
			}
			defer resp.Body.Close()
			var qr server.QueryResponse
			json.NewDecoder(resp.Body).Decode(&qr)
			results <- result{code: resp.StatusCode, count: qr.Count}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-bix.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("queries never reached the index")
		}
	}

	// The gate is full: the next request must shed, not queue.
	resp, err := req()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	resp.Body.Close()
	if got := srv.Gate().Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Releasing the index completes the admitted requests with answers.
	close(bix.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK || r.count != 1 {
			t.Fatalf("admitted request: code %d count %d", r.code, r.count)
		}
	}
	if got := srv.Gate().Inflight(); got != 0 {
		t.Fatalf("inflight after completion = %d", got)
	}
}

// spinningIndex emits forever, so only context cancellation can end a
// query — the worst case for slot reclamation.
type spinningIndex struct{ blockingIndex }

func (s *spinningIndex) Query(q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	seg := segdb.NewSegment(1, 0, 0, 1, 1)
	for {
		emit(seg)
	}
}

// TestCancelledContextReleasesSlot asserts a query aborted by its
// deadline gives its admission slot back.
func TestCancelledContextReleasesSlot(t *testing.T) {
	srv := server.New(segdb.Synchronized(&spinningIndex{}), nil, server.Config{
		MaxInflight: 1, DefaultTimeout: time.Minute,
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"x":0.5,"omit_hits":true,"timeout_ms":50}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-exceeded query: HTTP %d, want 503", resp.StatusCode)
	}
	if got := srv.Gate().Inflight(); got != 0 {
		t.Fatalf("slot leaked: inflight = %d", got)
	}

	// The freed slot admits the next request (it will also time out, but
	// it must be admitted rather than shed with 429).
	resp, err = http.Post(hs.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"x":0.5,"omit_hits":true,"timeout_ms":50}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("slot was not released: follow-up request shed with 429")
	}
}

// TestDrainCompletesInflight starts a drain while a query is in flight:
// the query's answers must still be delivered, new work must be rejected
// with 503, and Drain must return once the query finishes.
func TestDrainCompletesInflight(t *testing.T) {
	bix := &blockingIndex{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
		hits:    []segdb.Segment{segdb.NewSegment(1, 0, 0, 1, 1), segdb.NewSegment(2, 0, 1, 1, 2)},
	}
	srv := server.New(segdb.Synchronized(bix), nil, server.Config{
		MaxInflight: 4, DefaultTimeout: time.Minute,
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var inflightCode, inflightCount int
	go func() {
		defer wg.Done()
		resp, err := http.Post(hs.URL+"/v1/query", "application/json",
			bytes.NewReader([]byte(`{"x":0.5}`)))
		if err != nil {
			inflightCode = -1
			return
		}
		defer resp.Body.Close()
		var qr server.QueryResponse
		json.NewDecoder(resp.Body).Decode(&qr)
		inflightCode, inflightCount = resp.StatusCode, qr.Count
	}()
	<-bix.entered

	srv.BeginDrain()

	// New queries are rejected while the old one is still running.
	resp, err := http.Post(hs.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"x":0.5}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection carries no Retry-After")
	}

	// healthz flips to draining.
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: HTTP %d, want 503", hresp.StatusCode)
	}

	// Drain blocks until the in-flight query finishes...
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	// ...and the query's answers are not dropped.
	close(bix.release)
	wg.Wait()
	if inflightCode != http.StatusOK || inflightCount != 2 {
		t.Fatalf("in-flight query during drain: code %d count %d, want 200/2", inflightCode, inflightCount)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestStatszShape exercises /statsz over real traffic: request counts,
// latency histograms and per-shard store stats must be present and
// internally consistent, and the document must round-trip JSON into
// server.Snapshot (the contract segload relies on).
func TestStatszShape(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{MaxInflight: 8})
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(5))
	queries := workload.RandomVS(rng, 40, box, 3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := i; j < len(queries); j += 4 {
				q := queries[j]
				postQuery(t, hs.URL, server.QueryRequest{
					QuerySpec: server.QuerySpec{X: q.X, YLo: ptr(q.YLo), YHi: ptr(q.YHi)},
				})
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	q := snap.Endpoints["query"]
	if q.Requests != int64(len(queries)) {
		t.Fatalf("query requests = %d, want %d", q.Requests, len(queries))
	}
	if q.Latency.Count != int64(len(queries)) {
		t.Fatalf("latency count = %d, want %d", q.Latency.Count, len(queries))
	}
	var inBuckets int64
	for _, c := range q.Latency.Buckets {
		inBuckets += c
	}
	if inBuckets != q.Latency.Count {
		t.Fatalf("bucket sum %d != count %d", inBuckets, q.Latency.Count)
	}
	if snap.Segments != len(segs) {
		t.Fatalf("segments = %d, want %d", snap.Segments, len(segs))
	}
	if len(snap.Store.Shards) == 0 || snap.Store.PagesInUse == 0 {
		t.Fatalf("store stats missing: %+v", snap.Store)
	}
	var reads, hits int64
	for _, sh := range snap.Store.Shards {
		reads += sh.Reads
		hits += sh.CacheHits
	}
	if reads != snap.Store.Total.Reads || hits != snap.Store.Total.CacheHits {
		t.Fatalf("shard stats do not sum to totals: %d/%d vs %+v", reads, hits, snap.Store.Total)
	}
	if snap.Admission.MaxInflight != 8 || snap.Admission.Admitted != int64(len(queries)) {
		t.Fatalf("admission stats: %+v", snap.Admission)
	}
	// Programmatic and HTTP snapshots agree on the counters.
	if ps := srv.Snapshot(); ps.Endpoints["query"].Requests != q.Requests {
		t.Fatalf("programmatic snapshot disagrees: %d vs %d",
			ps.Endpoints["query"].Requests, q.Requests)
	}
}

// TestBadRequests covers the 4xx surface.
func TestBadRequests(t *testing.T) {
	hs, _, _ := testServer(t, server.Config{MaxBatch: 4})
	resp, err := http.Post(hs.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{bad json`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}

	over := server.QueryRequest{Queries: make([]server.QuerySpec, 5)}
	body, _ := json.Marshal(&over)
	resp, err = http.Post(hs.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: HTTP %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(hs.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET query: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestServeOversizedBodyIs413 is the regression test for unbounded
// request bodies: MaxBatch used to be checked only after a body of any
// size had been decoded into memory. The body is now read through a
// bound derived from MaxBatch, so one past it answers 413 — on the query
// and the update endpoints alike — and lands on the parse row, keeping
// errors <= requests everywhere.
func TestServeOversizedBodyIs413(t *testing.T) {
	hs, srv, _ := durableServer(t, server.Config{MaxBatch: 4})
	huge, err := json.Marshal(&server.QueryRequest{Queries: make([]server.QuerySpec, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	padded := append([]byte(`{"id":1,"ax":0,"ay":0,"bx":1,"by":0,"pad":"`), bytes.Repeat([]byte("x"), 1<<16)...)
	padded = append(padded, `"}`...)
	for path, body := range map[string][]byte{"/v1/query": huge, "/v1/insert": padded} {
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: HTTP %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	snap := srv.Snapshot()
	if p := snap.Endpoints["parse"]; p.Requests != 2 || p.Errors != 2 {
		t.Fatalf("parse row = %d requests / %d errors, want 2 / 2", p.Requests, p.Errors)
	}
	for _, name := range []string{"batch", "insert"} {
		if ep := snap.Endpoints[name]; ep.Requests != 0 || ep.Errors != 0 {
			t.Fatalf("%s row = %d requests / %d errors, want untouched", name, ep.Requests, ep.Errors)
		}
	}
	if snap.Segments != 0 {
		t.Fatalf("oversized insert was applied: %d segments", snap.Segments)
	}
}

// TestServeStatszInvariantUnderMalformedTraffic is the regression test
// for decode failures skewing the metrics: malformed bodies used to
// count an error on the query endpoint without counting a request, so
// errors could exceed requests. They now land on the dedicated "parse"
// row as one request plus one error, and every endpoint row keeps the
// errors ≤ requests invariant under mixed good/bad traffic.
func TestServeStatszInvariantUnderMalformedTraffic(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{})
	box := workload.BBox(segs)

	garbage := [][]byte{
		[]byte(`{bad json`),
		[]byte(`[1,2,3`),
		[]byte(`{"x": "not a number"}`),
		[]byte(`"just a string`),
		[]byte(``),
		[]byte(`{"queries": [{"x": {}}]}`),
		[]byte(`{{{`),
		[]byte(`{"x":1}{"x":2}`),   // trailing data: two requests in one body
		[]byte(`{"x":1,"ylow":5}`), // unknown field: would run as a stabbing line
	}
	bad := int64(len(garbage))
	for i := range garbage {
		resp, err := http.Post(hs.URL+"/v1/query", "application/json",
			bytes.NewReader(garbage[i]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body %d: HTTP %d, want 400", i, resp.StatusCode)
		}
	}
	const good = 5
	for i := 0; i < good; i++ {
		postQuery(t, hs.URL, server.QueryRequest{
			QuerySpec: server.QuerySpec{X: box.MinX + float64(i)},
		})
	}

	snap := srv.Snapshot()
	for name, ep := range snap.Endpoints {
		if ep.Errors > ep.Requests {
			t.Fatalf("endpoint %q: errors %d > requests %d", name, ep.Errors, ep.Requests)
		}
	}
	p := snap.Endpoints["parse"]
	if p.Requests != bad || p.Errors != bad {
		t.Fatalf("parse row = %d requests / %d errors, want %d / %d",
			p.Requests, p.Errors, bad, bad)
	}
	q := snap.Endpoints["query"]
	if q.Requests != good || q.Errors != 0 {
		t.Fatalf("query row = %d requests / %d errors, want %d / 0",
			q.Requests, q.Errors, good)
	}
}

// TestServeIOAttribution: real traffic over SynchronizedOn must surface
// per-endpoint I/O — totals, ratio, and a pages-read histogram whose
// count matches the request count — and the single and batch endpoints
// account independently.
func TestServeIOAttribution(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{})
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(8))
	queries := workload.RandomVS(rng, 20, box, 3)

	for _, q := range queries {
		postQuery(t, hs.URL, server.QueryRequest{
			QuerySpec: server.QuerySpec{X: q.X, YLo: ptr(q.YLo), YHi: ptr(q.YHi)},
		})
	}
	var batch server.QueryRequest
	for _, q := range queries {
		batch.Queries = append(batch.Queries, server.QuerySpec{X: q.X, YLo: ptr(q.YLo), YHi: ptr(q.YHi)})
	}
	batch.Parallelism = 4
	if resp, _ := postQuery(t, hs.URL, batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}

	snap := srv.Snapshot()
	for _, name := range []string{"query", "batch"} {
		ep := snap.Endpoints[name]
		if ep.IOReads+ep.IOHits == 0 {
			t.Fatalf("%s endpoint attributed no I/O over %d requests", name, ep.Requests)
		}
		if ep.PagesRead.Count != ep.Requests {
			t.Fatalf("%s pages-read histogram count %d != requests %d",
				name, ep.PagesRead.Count, ep.Requests)
		}
		if ep.PoolHits.Count != ep.Requests {
			t.Fatalf("%s pool-hits histogram count %d != requests %d",
				name, ep.PoolHits.Count, ep.Requests)
		}
		if ep.PagesRead.Sum != ep.IOReads || ep.PoolHits.Sum != ep.IOHits {
			t.Fatalf("%s histogram sums (%d reads, %d hits) != totals (%d, %d)",
				name, ep.PagesRead.Sum, ep.PoolHits.Sum, ep.IOReads, ep.IOHits)
		}
		if ep.HitRatio < 0 || ep.HitRatio > 1 {
			t.Fatalf("%s hit ratio %f out of range", name, ep.HitRatio)
		}
	}
	// The single queries ran serially, so their windows are exact and can
	// never exceed what the store itself observed. (Batch windows may
	// over-count under concurrency — see the pager package comment.)
	if qe := snap.Endpoints["query"]; qe.IOReads > snap.Store.Total.Reads {
		t.Fatalf("attributed reads %d exceed store total %d", qe.IOReads, snap.Store.Total.Reads)
	}
}

// TestGate unit-tests the semaphore directly.
func TestGate(t *testing.T) {
	g := server.NewGate(2)
	if err := g.Admit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(); err != nil {
		t.Fatal(err)
	}
	if err := g.Admit(); err != server.ErrSaturated {
		t.Fatalf("third Admit = %v, want ErrSaturated", err)
	}
	g.Release()
	if err := g.Admit(); err != nil {
		t.Fatalf("Admit after Release = %v", err)
	}
	g.StartDrain()
	if err := g.Admit(); err != server.ErrDraining {
		t.Fatalf("Admit while draining = %v, want ErrDraining", err)
	}
	select {
	case <-g.Drained():
		t.Fatal("Drained closed with requests in flight")
	default:
	}
	g.Release()
	g.Release()
	select {
	case <-g.Drained():
	case <-time.After(time.Second):
		t.Fatal("Drained never closed")
	}
	st := g.Stats()
	if st.Shed != 1 || st.Rejected != 1 || st.Admitted != 3 || st.Inflight != 0 || !st.Draining {
		t.Fatalf("gate stats: %+v", st)
	}
}

// TestGateConcurrent hammers the gate from many goroutines under -race:
// inflight must never exceed capacity and every admit must be released.
func TestGateConcurrent(t *testing.T) {
	const cap = 8
	g := server.NewGate(cap)
	var over, admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g.Admit() != nil {
					continue
				}
				mu.Lock()
				admitted++
				if g.Inflight() > cap {
					over++
				}
				mu.Unlock()
				g.Release()
			}
		}()
	}
	wg.Wait()
	if over != 0 {
		t.Fatalf("inflight exceeded capacity %d times", over)
	}
	if g.Inflight() != 0 {
		t.Fatalf("inflight = %d after all releases", g.Inflight())
	}
	if st := g.Stats(); st.Admitted != admitted {
		t.Fatalf("admitted counter %d != observed %d", st.Admitted, admitted)
	}
}

// faultServer serves an index whose store sits on a fault-injection
// device with a zero-page cache, so injected disk faults reach every
// query instead of being masked by the pool.
func faultServer(t *testing.T, cfg server.Config) (*httptest.Server, *faultdev.Device) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	segs := workload.Grid(rng, 10, 10, 0.9, 0.2)
	pageSize := segdb.PageSizeFor(16)
	dev := faultdev.New(pager.NewMemDevice(pageSize), 1)
	st, err := pager.Open(dev, pageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := segdb.CreateSolution2(st, segdb.Options{B: 16}, segs)
	if err != nil {
		t.Fatal(err)
	}
	box := workload.BBox(segs)
	cfg.DeepProbeX = (box.MinX + box.MaxX) / 2
	srv := server.New(segdb.Synchronized(ix), st, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs, dev
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHealthzDeepCheck: /healthz stays a cheap liveness probe, but
// ?deep=1 drives a real stabbing query through the store — a dying disk
// flips deep health to 500 while liveness still answers 200, which is
// exactly the signal an orchestrator needs to stop routing reads to a
// replica whose file has rotted underneath it.
func TestHealthzDeepCheck(t *testing.T) {
	hs, dev := faultServer(t, server.Config{})

	if got := getStatus(t, hs.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthy /healthz = %d", got)
	}
	if got := getStatus(t, hs.URL+"/healthz?deep=1"); got != http.StatusOK {
		t.Fatalf("healthy /healthz?deep=1 = %d", got)
	}

	dev.SetBudget(0) // the disk dies
	if got := getStatus(t, hs.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("liveness must survive a dead disk, got %d", got)
	}
	if got := getStatus(t, hs.URL+"/healthz?deep=1"); got != http.StatusInternalServerError {
		t.Fatalf("deep check on dead disk = %d, want 500", got)
	}
}

// TestQueryOnFaultyStore: single queries surface injected device faults
// as 500s; batch queries degrade per-query via the error field instead of
// failing the whole request.
func TestQueryOnFaultyStore(t *testing.T) {
	hs, dev := faultServer(t, server.Config{})
	dev.SetBudget(0)

	resp, _ := postQuery(t, hs.URL, server.QueryRequest{QuerySpec: server.QuerySpec{X: 5}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("single query on dead disk = %d, want 500", resp.StatusCode)
	}

	resp, qr := postQuery(t, hs.URL, server.QueryRequest{Queries: []server.QuerySpec{{X: 5}, {X: 6}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch on dead disk = %d, want 200 with per-query errors", resp.StatusCode)
	}
	for i, r := range qr.Results {
		if r.Error == "" {
			t.Fatalf("batch result %d reported no error on a dead disk", i)
		}
	}
}

// postRaw posts body verbatim to /v1/query and returns the status and the
// response bytes with the one wall-clock field zeroed.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, elapsedField.ReplaceAllString(string(b), `"elapsed_ms":0`)
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// TestSingleFormGolden pins the single form's wire bytes, status codes
// and 500/503 messages to what the handler answered when it had a
// hand-rolled single-query path (recorded at that commit, elapsed_ms
// zeroed): serving the single form as a batch of one must be invisible
// on the wire.
func TestSingleFormGolden(t *testing.T) {
	hs, _, _ := testServer(t, server.Config{})
	for _, g := range []struct{ req, want string }{
		{`{"x":4.5,"ylo":2,"yhi":4.25}`,
			`{"count":3,"hits":[{"id":65,"ax":4.034020428194692,"ay":2.8080022031093392,"bx":4.979742288030982,"by":3.1100926567659566},{"id":84,"ax":3.9843360650152806,"ay":3.8126056465217273,"bx":5.12732549397579,"by":4.034166745038302},{"id":46,"ax":4.00466601875637,"ay":2.094134597537056,"bx":4.948165234457147,"by":2.0593184160630353}],"elapsed_ms":0}` + "\n"},
		{`{"x":4.5,"ylo":2,"yhi":4.25,"omit_hits":true}`, `{"count":3,"elapsed_ms":0}` + "\n"},
		{`{"x":-100}`, `{"count":0,"elapsed_ms":0}` + "\n"},
	} {
		if code, got := postRaw(t, hs.URL, g.req); code != http.StatusOK || got != g.want {
			t.Errorf("%s:\n got %d %q\nwant 200 %q", g.req, code, got, g.want)
		}
	}

	fs, dev := faultServer(t, server.Config{})
	dev.SetBudget(0)
	want := `{"error":"pager: read page 20: op 21: faultdev: injected device fault"}` + "\n"
	if code, got := postRaw(t, fs.URL, `{"x":5}`); code != http.StatusInternalServerError || got != want {
		t.Errorf("dead disk: got %d %q, want 500 %q", code, got, want)
	}

	srv := server.New(segdb.Synchronized(&spinningIndex{}), nil, server.Config{DefaultTimeout: time.Minute})
	ss := httptest.NewServer(srv.Handler())
	defer ss.Close()
	want = `{"error":"query cancelled: context deadline exceeded"}` + "\n"
	if code, got := postRaw(t, ss.URL, `{"x":0.5,"omit_hits":true,"timeout_ms":50}`); code != http.StatusServiceUnavailable || got != want {
		t.Errorf("deadline: got %d %q, want 503 %q", code, got, want)
	}
}

// TestSingleFormEqualsBatchOfOne drives two identical servers in lock
// step, one with single-form requests and one with the same queries as
// one-element batches: count, hits, the endpoint's pages-read histogram
// row and the span tree under request must agree, because both forms are
// one engine call.
func TestSingleFormEqualsBatchOfOne(t *testing.T) {
	cfg := server.Config{TraceSample: 1, TraceRing: 64}
	single, ssrv, segs := testServer(t, cfg)
	batch, bsrv, _ := testServer(t, cfg)
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(17))
	queries := workload.RandomVS(rng, 30, box, 2)
	queries = append(queries, workload.RandomStabs(rng, 5, box)...)
	for _, q := range queries {
		spec := server.QuerySpec{X: q.X} // open bounds are spelled by omission
		if !math.IsInf(q.YLo, -1) {
			spec.YLo = ptr(q.YLo)
		}
		if !math.IsInf(q.YHi, 1) {
			spec.YHi = ptr(q.YHi)
		}
		_, one := postQuery(t, single.URL, server.QueryRequest{QuerySpec: spec})
		_, many := postQuery(t, batch.URL, server.QueryRequest{Queries: []server.QuerySpec{spec}})
		if len(many.Results) != 1 || !reflect.DeepEqual(one.QueryResult, many.Results[0]) {
			t.Fatalf("%v: single %+v != batch of one %+v", q, one.QueryResult, many.Results)
		}
	}
	sq, bq := ssrv.Snapshot().Endpoints["query"], bsrv.Snapshot().Endpoints["batch"]
	if sq.PagesRead.Count != int64(len(queries)) || !reflect.DeepEqual(sq.PagesRead, bq.PagesRead) {
		t.Fatalf("pages-read rows differ:\nsingle %+v\nbatch  %+v", sq.PagesRead, bq.PagesRead)
	}
	if sq.Answers != bq.Answers || sq.IOReads != bq.IOReads || sq.IOHits != bq.IOHits {
		t.Fatalf("endpoint rows differ:\nsingle %+v\nbatch  %+v", sq, bq)
	}

	// Span trees as sorted parent/child stage pairs, one string per trace.
	shapes := func(url string) []string {
		var out []string
		for _, tr := range fetchTracez(t, url).Traces {
			stage := map[trace.SpanID]string{}
			for _, sp := range tr.Spans {
				stage[sp.ID] = sp.Stage
			}
			var edges []string
			for _, sp := range tr.Spans {
				edges = append(edges, stage[sp.Parent]+">"+sp.Stage)
			}
			sort.Strings(edges)
			out = append(out, strings.Join(edges, " "))
		}
		return out
	}
	ss, bs := shapes(single.URL), shapes(batch.URL)
	if len(ss) != len(queries) || !reflect.DeepEqual(ss, bs) {
		t.Fatalf("span trees differ:\nsingle %q\nbatch  %q", ss, bs)
	}
	for _, sh := range ss {
		if !strings.Contains(sh, "request>query") {
			t.Fatalf("no query span under request: %q", sh)
		}
	}
}
