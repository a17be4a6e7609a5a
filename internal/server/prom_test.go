package server_test

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"segdb/internal/server"
	"segdb/internal/workload"
)

// parsePromStrict runs text through server.ParsePrometheus — the strict
// exposition-format parser segload and the e2e harness scrape with —
// and fails the test on anything the format forbids.
func parsePromStrict(t *testing.T, text string) ([]server.PromSample, map[string]string) {
	t.Helper()
	samples, types, err := server.ParsePrometheus(text)
	if err != nil {
		t.Fatal(err)
	}
	return samples, types
}

// checkPromHistograms verifies every exported histogram: cumulative
// buckets are monotone non-decreasing in le order, the +Inf bucket
// equals _count, and _sum and _count exist per label set.
func checkPromHistograms(t *testing.T, samples []server.PromSample, types map[string]string) {
	t.Helper()
	type key struct{ fam, labels string }
	// One histogram per family × full label set (excluding le, the bucket
	// dimension) — endpoint-labelled and stage-labelled series alike.
	labelKey := func(s server.PromSample) string {
		var parts []string
		for k, v := range s.Labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	buckets := make(map[key][]server.PromSample)
	counts := make(map[key]float64)
	sums := make(map[key]bool)
	for _, s := range samples {
		fam, suf := s.Name, ""
		for _, sx := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(s.Name, sx); ok && types[f] == "histogram" {
				fam, suf = f, sx
				break
			}
		}
		if suf == "" {
			continue
		}
		k := key{fam, labelKey(s)}
		switch suf {
		case "_bucket":
			buckets[k] = append(buckets[k], s)
		case "_count":
			counts[k] = s.Value
		case "_sum":
			sums[k] = true
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram series found")
	}
	for k, bs := range buckets {
		if !sums[k] {
			t.Fatalf("histogram %v: missing _sum", k)
		}
		count, ok := counts[k]
		if !ok {
			t.Fatalf("histogram %v: missing _count", k)
		}
		le := func(s server.PromSample) float64 {
			l := s.Labels["le"]
			if l == "+Inf" {
				return math.Inf(1)
			}
			v, err := strconv.ParseFloat(l, 64)
			if err != nil {
				t.Fatalf("histogram %v: bad le %q", k, l)
			}
			return v
		}
		sort.Slice(bs, func(i, j int) bool { return le(bs[i]) < le(bs[j]) })
		last := bs[len(bs)-1]
		if le(last) != math.Inf(1) {
			t.Fatalf("histogram %v: no +Inf bucket", k)
		}
		if last.Value != count {
			t.Fatalf("histogram %v: +Inf bucket %v != count %v", k, last.Value, count)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].Value < bs[i-1].Value {
				t.Fatalf("histogram %v: cumulative buckets decrease at le=%q (%v < %v)",
					k, bs[i].Labels["le"], bs[i].Value, bs[i-1].Value)
			}
		}
	}
}

// TestServeMetricszPrometheus drives real traffic (including malformed
// bodies and a batch) through the server, scrapes /metricsz, and runs the
// output through the strict parser — then cross-checks key series against
// the /statsz snapshot, since both views must derive from one registry.
func TestServeMetricszPrometheus(t *testing.T) {
	hs, srv, segs := testServer(t, server.Config{SlowLatency: 1}) // log everything
	box := workload.BBox(segs)
	rng := rand.New(rand.NewSource(12))
	queries := workload.RandomVS(rng, 15, box, 3)
	for _, q := range queries {
		postQuery(t, hs.URL, server.QueryRequest{
			QuerySpec: server.QuerySpec{X: q.X, YLo: ptr(q.YLo), YHi: ptr(q.YHi)},
		})
	}
	var batch server.QueryRequest
	for _, q := range queries[:5] {
		batch.Queries = append(batch.Queries, server.QuerySpec{X: q.X})
	}
	postQuery(t, hs.URL, batch)
	resp, err := http.Post(hs.URL+"/v1/query", "application/json", strings.NewReader(`{nope`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain version=0.0.4", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		fmt.Fprintln(&sb, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	samples, types := parsePromStrict(t, sb.String())
	checkPromHistograms(t, samples, types)

	// Cross-check against the JSON snapshot: one registry, two views.
	snap := srv.Snapshot()
	get := func(name, ep string) float64 {
		for _, s := range samples {
			if s.Name == name && s.Labels["endpoint"] == ep {
				return s.Value
			}
		}
		t.Fatalf("metric %s{endpoint=%q} not exported", name, ep)
		return 0
	}
	if got := get("segdb_requests_total", "query"); got != float64(snap.Endpoints["query"].Requests) {
		t.Fatalf("requests_total{query} = %v, statsz says %d", got, snap.Endpoints["query"].Requests)
	}
	if got := get("segdb_requests_total", "parse"); got != 1 {
		t.Fatalf("requests_total{parse} = %v, want 1", got)
	}
	if got := get("segdb_request_errors_total", "parse"); got != 1 {
		t.Fatalf("request_errors_total{parse} = %v, want 1", got)
	}
	if got := get("segdb_io_pages_read_total", "query"); got != float64(snap.Endpoints["query"].IOReads) {
		t.Fatalf("io_pages_read_total{query} = %v, statsz says %d", got, snap.Endpoints["query"].IOReads)
	}
	if got := get("segdb_query_pages_read_count", "query"); got != float64(snap.Endpoints["query"].PagesRead.Count) {
		t.Fatalf("pages_read histogram count = %v, statsz says %d", got, snap.Endpoints["query"].PagesRead.Count)
	}
	if got := get("segdb_store_reads_total", ""); got != float64(snap.Store.Total.Reads) {
		t.Fatalf("store_reads_total = %v, statsz says %d", got, snap.Store.Total.Reads)
	}
	// With a log-everything threshold every request is slow.
	if got := get("segdb_slow_requests_total", ""); got < float64(len(queries)) {
		t.Fatalf("slow_requests_total = %v, want ≥ %d", got, len(queries))
	}
	// Per-shard series sum to the total.
	var shardReads float64
	for _, s := range samples {
		if s.Name == "segdb_store_shard_reads_total" {
			shardReads += s.Value
		}
	}
	if shardReads != get("segdb_store_reads_total", "") {
		t.Fatalf("shard reads sum %v != store total %v", shardReads, get("segdb_store_reads_total", ""))
	}
}

// TestPromTextEmptyRegistry: a fresh registry must still render valid
// exposition output (zero-valued series, no histogram samples missing).
func TestPromTextEmptyRegistry(t *testing.T) {
	_, srv, _ := testServer(t, server.Config{})
	text := server.PromText(srv.Snapshot())
	samples, types := parsePromStrict(t, text)
	checkPromHistograms(t, samples, types)
	if len(samples) == 0 {
		t.Fatal("empty exposition output")
	}
}
