// Command segload is a closed-loop load generator for segdbd: -c workers
// each keep exactly one query in flight, so measured latency is service
// latency, not coordinated-omission artifacts from an open-loop arrival
// process. On 429 a worker honours Retry-After before retrying — the
// cooperative half of the server's admission control.
//
// Usage:
//
//	segload -addr http://127.0.0.1:8080 -csv segs.csv -c 4 -duration 10s
//	segload -csv segs.csv -c 16 -json
//
// -write-frac mixes durable writes into the stream (against segdbd -wal):
// that fraction of each worker's requests become /v1/insert or /v1/delete
// calls on worker-private segments laid out above the data's bounding box
// — horizontal, each on its own y — so the NCT insert contract holds by
// construction and deletes always target segments the worker inserted.
//
// -replica <url> (repeatable) adds read replicas: queries round-robin
// across -addr and every replica while writes stay on -addr, and the
// report adds a per-target row — client latency plus the replica's own
// /statsz replication lag — so a stale or slow replica is visible next
// to the leader it trails.
//
// -trace stamps every request with a sampled W3C traceparent header, so
// a tracing-enabled server (segdbd -trace-sample > 0) keeps a trace for
// each of them; at the end of the run segload scrapes /tracez and prints
// a per-stage latency table (p50/p99/max over the kept traces' spans) —
// where inside the server the time went, stage by stage.
//
// -csv is the workload CSV the index was built from: its bounding box is
// the query range. Every request is a single-form counts-only query in a
// fixed mix (10 % stabbing lines, 20 % rays, the rest segments a fiftieth
// of the box high): segload drives the end-to-end tests and is not a
// benchmark (bench/ is), so the mix is not configurable. The report
// combines client-side latency (merged per-worker histograms) with the
// server's /statsz snapshot and a /metricsz scrape: throughput,
// p50/p90/p99, shed counts, the store's pool hit ratio, and the
// server-side I/O cost per query — physical pages read, the paper's
// measure — so a slow run can be attributed to I/O rather than guessed
// at. -json emits the same report machine-readably; the end-to-end tests
// read it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"segdb/internal/repl"
	"segdb/internal/server"
	"segdb/internal/trace"
	"segdb/internal/workload"
)

type counters struct {
	requests atomic.Int64
	ok       atomic.Int64
	shed     atomic.Int64
	errors   atomic.Int64
	answers  atomic.Int64
	inserts  atomic.Int64 // acknowledged inserts
	deletes  atomic.Int64 // acknowledged deletes
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "segdbd base URL")
	c := flag.Int("c", 4, "concurrent closed-loop workers")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "workload CSV the index was built from; its bounding box is the query range (required)")
	writeFrac := flag.Float64("write-frac", 0, "fraction of requests that are writes, split insert/delete (requires segdbd -wal)")
	traced := flag.Bool("trace", false, "send a sampled traceparent with every request and report per-stage latency from /tracez (requires segdbd -trace-sample > 0)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	var replicas []string
	flag.Func("replica", "read-replica base URL (repeatable); reads round-robin across -addr and replicas, writes stay on -addr", func(s string) error {
		replicas = append(replicas, strings.TrimSuffix(s, "/"))
		return nil
	})
	flag.Parse()

	targets := append([]string{strings.TrimSuffix(*addr, "/")}, replicas...)

	if *csvPath == "" {
		fatal(errors.New("-csv is required: the query range is the workload's bounding box"))
	}
	segs, err := workload.ReadCSV(*csvPath)
	if err == nil && len(segs) == 0 {
		err = fmt.Errorf("%s holds no segments", *csvPath)
	}
	if err != nil {
		fatal(err)
	}
	box := workload.BBox(segs)

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *c * 2,
		MaxIdleConnsPerHost: *c * 2,
	}}

	var (
		cnt   counters
		tcnt  = make([]targetCounters, len(targets))
		hists = make([][]*server.Histogram, *c)
		wg    sync.WaitGroup
	)
	deadline := time.Now().Add(*duration)
	for w := 0; w < *c; w++ {
		hists[w] = make([]*server.Histogram, len(targets))
		for t := range hists[w] {
			hists[w][t] = &server.Histogram{}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(client, rand.New(rand.NewSource(*seed+int64(w))), workerConfig{
				deadline: deadline, targets: targets,
				box:       box,
				writeFrac: *writeFrac, worker: w, trace: *traced,
			}, &cnt, tcnt, hists[w])
		}(w)
	}
	wg.Wait()
	wall := *duration

	lat := &server.Histogram{}
	for _, hw := range hists {
		for _, ht := range hw {
			lat.Merge(ht)
		}
	}
	var snap server.Snapshot
	snapErr := getJSON(client, *addr+"/statsz", &snap)
	prom, promErr := fetchMetricsz(client, *addr)

	report := buildReport(&cnt, lat.Snapshot(), wall, *c, snap, snapErr, prom, promErr)
	if len(targets) > 1 {
		report.Replicas = replicaReports(client, targets, tcnt, hists)
	}
	if *traced {
		var ring trace.RingSnapshot
		if err := getJSON(client, targets[0]+"/tracez", &ring); err != nil {
			fmt.Fprintf(os.Stderr, "segload: tracez: %v\n", err)
		} else {
			report.TracesKept = ring.TracesKept
			report.TraceStages = stageTable(ring)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
		return
	}
	printReport(report, snapErr, promErr)
}

type workerConfig struct {
	deadline time.Time
	// targets are the read endpoints, round-robined per worker; targets[0]
	// is the primary and takes every write.
	targets   []string
	box       workload.Rect // the data's bounding box: the query range
	writeFrac float64
	worker    int
	trace     bool
}

// The fixed query mix: a tenth stabbing lines, a fifth rays, the rest
// segments a fiftieth of the data's y extent high.
const (
	lineFrac   = 0.1
	rayFrac    = 0.2
	heightFrac = 1.0 / 50
)

// targetCounters is one read target's share of the run, summed across
// workers.
type targetCounters struct {
	requests atomic.Int64
	ok       atomic.Int64
}

func randQuery(rng *rand.Rand, cfg workerConfig) server.QuerySpec {
	q := server.QuerySpec{X: cfg.box.MinX + rng.Float64()*(cfg.box.MaxX-cfg.box.MinX)}
	r := rng.Float64()
	switch {
	case r < lineFrac:
		// open both sides: stabbing line
	case r < lineFrac+rayFrac:
		y := cfg.box.MinY + rng.Float64()*(cfg.box.MaxY-cfg.box.MinY)
		if rng.Intn(2) == 0 {
			q.YLo = &y
		} else {
			q.YHi = &y
		}
	default:
		height := (cfg.box.MaxY - cfg.box.MinY) * heightFrac
		lo := cfg.box.MinY + rng.Float64()*(cfg.box.MaxY-cfg.box.MinY-height)
		hi := lo + height
		q.YLo, q.YHi = &lo, &hi
	}
	return q
}

// updaterState is one worker's write-path state: the segments it has
// inserted and not yet deleted, and its next unique ID. Inserted segments
// are horizontal, each on its own y strictly above the data's bounding
// box, so the NCT invariant (the Insert contract) holds by construction —
// they cross neither the stored data nor each other, across all workers.
type updaterState struct {
	owned []server.WireSegment
	next  uint64
}

// newSegment mints this worker's next disjoint segment.
func (u *updaterState) newSegment(cfg workerConfig) server.WireSegment {
	u.next++
	// Worker lanes above the data: yHi + height clears the box, each
	// worker gets a wide band, each insert its own y within it.
	y := cfg.box.MaxY + (cfg.box.MaxY - cfg.box.MinY) + 1 + float64(cfg.worker)*1e6 + float64(u.next)*1e-3
	w := (cfg.box.MaxX-cfg.box.MinX)/10 + 1
	return server.WireSegment{
		// IDs partition by worker, far above any generator-assigned ID.
		ID: uint64(cfg.worker+1)<<32 | u.next,
		AX: cfg.box.MinX, AY: y, BX: cfg.box.MinX + w, BY: y,
	}
}

// runUpdate issues one insert or delete. Deletes target a segment this
// worker inserted earlier; with nothing owned it inserts.
func runUpdate(client *http.Client, addr string, rng *rand.Rand, cfg workerConfig, u *updaterState, cnt *counters, hist *server.Histogram) {
	del := len(u.owned) > 0 && rng.Intn(2) == 0
	var seg server.WireSegment
	endpoint := "/v1/insert"
	var ownedIdx int
	if del {
		endpoint = "/v1/delete"
		ownedIdx = rng.Intn(len(u.owned))
		seg = u.owned[ownedIdx]
	} else {
		seg = u.newSegment(cfg)
	}
	var ur server.UpdateResponse
	if !call(client, rng, addr+endpoint, cfg.trace, server.UpdateRequest{WireSegment: seg}, &ur, cnt, hist) {
		return
	}
	if del {
		cnt.deletes.Add(1)
		u.owned[ownedIdx] = u.owned[len(u.owned)-1]
		u.owned = u.owned[:len(u.owned)-1]
	} else {
		cnt.inserts.Add(1)
		u.owned = append(u.owned, seg)
	}
}

// runWorker is one closed-loop client: queries round-robin across
// cfg.targets (offset by worker so small runs still touch every
// target), writes always go to the primary. hists is this worker's
// per-target latency histogram set.
func runWorker(client *http.Client, rng *rand.Rand, cfg workerConfig, cnt *counters, tcnt []targetCounters, hists []*server.Histogram) {
	var upd updaterState
	next := cfg.worker
	for time.Now().Before(cfg.deadline) {
		if cfg.writeFrac > 0 && rng.Float64() < cfg.writeFrac {
			runUpdate(client, cfg.targets[0], rng, cfg, &upd, cnt, hists[0])
			continue
		}
		t := next % len(cfg.targets)
		next++
		tcnt[t].requests.Add(1)
		var qr server.QueryResponse
		req := server.QueryRequest{QuerySpec: randQuery(rng, cfg), OmitHits: true}
		if call(client, rng, cfg.targets[t]+"/v1/query", cfg.trace, &req, &qr, cnt, hists[t]) {
			tcnt[t].ok.Add(1)
			cnt.answers.Add(int64(qr.Count))
		}
	}
}

// call issues one JSON request and accounts for it in cnt: true — with
// the response in out and the latency in hist — when the server answered
// 200; a shed (429/503) honours Retry-After before returning. When traced
// it stamps a fresh sampled W3C traceparent — the sampled flag is the
// propagated-keep signal, so a tracing server retains every segload
// request whatever its own sampling rate. The low bit forced on keeps the
// IDs nonzero, which the parser (correctly) rejects.
func call(client *http.Client, rng *rand.Rand, url string, traced bool, in, out any, cnt *counters, hist *server.Histogram) bool {
	body, err := json.Marshal(in)
	if err != nil {
		fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(trace.Header, fmt.Sprintf("00-%016x%016x-%016x-01",
			rng.Uint64(), rng.Uint64()|1, rng.Uint64()|1))
	}
	cnt.requests.Add(1)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		cnt.errors.Add(1)
		return false
	}
	decErr := json.NewDecoder(resp.Body).Decode(out)
	resp.Body.Close()
	elapsed := time.Since(start)
	switch {
	case resp.StatusCode == http.StatusOK && decErr == nil:
		cnt.ok.Add(1)
		hist.Observe(elapsed)
		return true
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		cnt.shed.Add(1)
		time.Sleep(retryAfter(resp, 50*time.Millisecond))
	default:
		cnt.errors.Add(1)
	}
	return false
}

// retryAfter parses the Retry-After hint, falling back (and capping) so a
// misbehaving server cannot stall the run.
func retryAfter(resp *http.Response, fallback time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			d := time.Duration(secs) * time.Second
			if d > 2*time.Second {
				d = 2 * time.Second
			}
			return d
		}
	}
	return fallback
}

// promMetrics holds scraped /metricsz samples keyed by metric name, then
// by endpoint label ("" for unlabelled samples).
type promMetrics map[string]map[string]float64

func (p promMetrics) value(name, endpoint string) float64 {
	return p[name][endpoint]
}

func fetchMetricsz(client *http.Client, addr string) (promMetrics, error) {
	resp, err := client.Get(addr + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricsz: HTTP %d", resp.StatusCode)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		return nil, err
	}
	// The strict parser doubles as a format check on the scrape.
	samples, _, err := server.ParsePrometheus(b.String())
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("metricsz: no samples")
	}
	out := make(promMetrics)
	for _, sm := range samples {
		if out[sm.Name] == nil {
			out[sm.Name] = make(map[string]float64)
		}
		out[sm.Name][sm.Labels["endpoint"]] = sm.Value
	}
	return out, nil
}

// getJSON decodes the JSON document at url into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// StageLatency is one stage's latency distribution over the spans of the
// traces retained in /tracez at the end of the run: where inside the
// server the traced requests spent their time.
type StageLatency struct {
	Stage string  `json:"stage"`
	Spans int     `json:"spans"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// stageTable folds the ring's span durations into one row per stage, in
// the tracer's canonical stage order (request first, then the pipeline).
func stageTable(ring trace.RingSnapshot) []StageLatency {
	durs := make(map[string][]float64)
	for _, t := range ring.Traces {
		for _, sp := range t.Spans {
			durs[sp.Stage] = append(durs[sp.Stage], sp.DurUS/1e3)
		}
	}
	var out []StageLatency
	for _, st := range trace.StageNames() {
		d := durs[st]
		if len(d) == 0 {
			continue
		}
		sort.Float64s(d)
		out = append(out, StageLatency{
			Stage: st,
			Spans: len(d),
			P50MS: quantile(d, 0.50),
			P99MS: quantile(d, 0.99),
			MaxMS: d[len(d)-1],
		})
	}
	return out
}

// quantile reads the q-th quantile off a sorted sample by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// ServerIO is the server-side I/O cost of one endpoint's queries, as
// scraped from /metricsz (cross-checkable against /statsz, which renders
// the same registry): physical pages read per request — the paper's
// I/O-model cost — with tail quantiles from the pages-read histogram.
type ServerIO struct {
	Endpoint      string  `json:"endpoint"`
	Requests      int64   `json:"requests"`
	PagesPerQuery float64 `json:"pages_per_query"`
	HitsPerQuery  float64 `json:"hits_per_query"`
	WritesPerOp   float64 `json:"writes_per_op,omitempty"`
	P50Pages      float64 `json:"p50_pages"`
	P99Pages      float64 `json:"p99_pages"`
	HitRatio      float64 `json:"hit_ratio"`
}

// ReplicaReport is one read target's share of a replica-split run:
// client-side query counts and latency against that target, plus — for
// followers — the target's own replication position from its /statsz.
type ReplicaReport struct {
	Addr     string                   `json:"addr"`
	Primary  bool                     `json:"primary,omitempty"`
	Requests int64                    `json:"requests"`
	OK       int64                    `json:"ok"`
	Latency  server.HistogramSnapshot `json:"latency"`
	Repl     *repl.Status             `json:"repl,omitempty"`
	StatsErr string                   `json:"stats_error,omitempty"`
}

// Report is the run summary; -json emits it verbatim.
type Report struct {
	Clients     int                      `json:"clients"`
	WallSeconds float64                  `json:"wall_seconds"`
	Requests    int64                    `json:"requests"`
	OK          int64                    `json:"ok"`
	Shed        int64                    `json:"shed"`
	Errors      int64                    `json:"errors"`
	Answers     int64                    `json:"answers"`
	Inserts     int64                    `json:"inserts,omitempty"`
	Deletes     int64                    `json:"deletes,omitempty"`
	Throughput  float64                  `json:"throughput_qps"`
	Latency     server.HistogramSnapshot `json:"latency"`
	ServerStats *server.Snapshot         `json:"server,omitempty"`
	ServerIO    []ServerIO               `json:"server_io,omitempty"`
	HitRatio    float64                  `json:"store_hit_ratio"`
	Replicas    []ReplicaReport          `json:"read_targets,omitempty"`
	TracesKept  int64                    `json:"traces_kept,omitempty"`
	TraceStages []StageLatency           `json:"trace_stages,omitempty"`
}

// replicaReports assembles the per-target rows: merged client latency
// against each target and, from each target's /statsz, its replication
// status (absent on the primary, which leads rather than follows).
func replicaReports(client *http.Client, targets []string, tcnt []targetCounters, hists [][]*server.Histogram) []ReplicaReport {
	out := make([]ReplicaReport, len(targets))
	for t, addr := range targets {
		merged := &server.Histogram{}
		for w := range hists {
			merged.Merge(hists[w][t])
		}
		rr := ReplicaReport{
			Addr:     addr,
			Primary:  t == 0,
			Requests: tcnt[t].requests.Load(),
			OK:       tcnt[t].ok.Load(),
			Latency:  merged.Snapshot(),
		}
		var snap server.Snapshot
		if err := getJSON(client, addr+"/statsz", &snap); err != nil {
			rr.StatsErr = err.Error()
		} else {
			rr.Repl = snap.Repl
		}
		out[t] = rr
	}
	return out
}

func buildReport(cnt *counters, lat server.HistogramSnapshot, wall time.Duration, clients int, snap server.Snapshot, snapErr error, prom promMetrics, promErr error) Report {
	r := Report{
		Clients:     clients,
		WallSeconds: wall.Seconds(),
		Requests:    cnt.requests.Load(),
		OK:          cnt.ok.Load(),
		Shed:        cnt.shed.Load(),
		Errors:      cnt.errors.Load(),
		Answers:     cnt.answers.Load(),
		Inserts:     cnt.inserts.Load(),
		Deletes:     cnt.deletes.Load(),
		Latency:     lat,
	}
	if wall > 0 {
		r.Throughput = float64(r.OK) / wall.Seconds()
	}
	if snapErr == nil {
		r.ServerStats = &snap
		r.HitRatio = snap.Store.HitRatio
	}
	if promErr == nil {
		r.ServerIO = serverIOFrom(prom, r.ServerStats)
	}
	return r
}

// serverIOFrom folds the scraped histogram series into per-endpoint I/O
// cost rows. Means come from the Prometheus _sum/_count series; tail
// quantiles from the /statsz snapshot of the same histograms when it is
// available.
func serverIOFrom(prom promMetrics, snap *server.Snapshot) []ServerIO {
	var out []ServerIO
	for _, ep := range []string{"query", "batch", "insert", "delete"} {
		count := prom.value("segdb_query_pages_read_count", ep)
		if count == 0 {
			continue
		}
		pages := prom.value("segdb_query_pages_read_sum", ep)
		hits := prom.value("segdb_query_pool_hits_sum", ep)
		written := prom.value("segdb_query_pages_written_sum", ep)
		io := ServerIO{
			Endpoint:      ep,
			Requests:      int64(count),
			PagesPerQuery: pages / count,
			HitsPerQuery:  hits / count,
			WritesPerOp:   written / count,
		}
		if tot := pages + hits; tot > 0 {
			io.HitRatio = hits / tot
		}
		if snap != nil {
			if es, ok := snap.Endpoints[ep]; ok {
				io.P50Pages = es.PagesRead.P50
				io.P99Pages = es.PagesRead.P99
			}
		}
		out = append(out, io)
	}
	return out
}

func printReport(r Report, snapErr, promErr error) {
	fmt.Printf("segload: %d clients, %.1fs wall\n", r.Clients, r.WallSeconds)
	fmt.Printf("  requests %d  ok %d  shed %d  errors %d  answers %d\n",
		r.Requests, r.OK, r.Shed, r.Errors, r.Answers)
	if r.Inserts > 0 || r.Deletes > 0 {
		fmt.Printf("  writes: %d inserts, %d deletes acknowledged durable\n", r.Inserts, r.Deletes)
	}
	fmt.Printf("  throughput %.1f q/s\n", r.Throughput)
	fmt.Printf("  latency ms: mean %.3f  p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
		r.Latency.MeanMS, r.Latency.P50MS, r.Latency.P90MS, r.Latency.P99MS, r.Latency.MaxMS)
	if snapErr != nil {
		fmt.Printf("  statsz unavailable: %v\n", snapErr)
	} else {
		s := r.ServerStats
		fmt.Printf("  server: store hit ratio %.3f (%d reads, %d hits), inflight max %d, shed %d\n",
			s.Store.HitRatio, s.Store.Total.Reads, s.Store.Total.CacheHits,
			s.Admission.MaxInflight, s.Admission.Shed)
		if q, ok := s.Endpoints["query"]; ok && q.Latency.Count > 0 {
			fmt.Printf("  server query latency ms: p50 %.3f  p99 %.3f (%d served)\n",
				q.Latency.P50MS, q.Latency.P99MS, q.Latency.Count)
		}
		// A sharded server (-shards) reports one row per slab: ownership
		// balance, spanner registrations, per-shard WAL and pool state.
		for _, sh := range s.Shards {
			fmt.Printf("  server shard %d: %d segments, %d spanners, %d wal records, hit ratio %.3f (%d reads)",
				sh.Shard, sh.Segments, sh.Spanners, sh.WALRecords, sh.HitRatio, sh.IO.Reads)
			if sh.WALWedged {
				fmt.Printf(", WEDGED")
			}
			fmt.Println()
		}
		if s.WAL != nil {
			fmt.Printf("  server wal: %d records, %d bytes (%d durable)",
				s.WAL.Records, s.WAL.SizeBytes, s.WAL.DurableBytes)
			if s.WAL.Wedged {
				fmt.Printf(", WEDGED")
			}
			fmt.Println()
		}
		if c := s.Compact; c != nil && c.Total > 0 {
			fmt.Printf("  server compactions: %d (%d auto, %d failed, %d deferred), last ran %.1fms (stalled writes %.1fms), %.1fs ago\n",
				c.Total, c.Auto, c.Failures, c.Deferred, c.LastDurationMS, c.LastStallMS, c.LastAgeSeconds)
		}
	}
	for _, t := range r.Replicas {
		role := "replica"
		if t.Primary {
			role = "primary"
		}
		fmt.Printf("  %s %s: %d ok/%d, p50 %.3fms p99 %.3fms",
			role, t.Addr, t.OK, t.Requests, t.Latency.P50MS, t.Latency.P99MS)
		switch {
		case t.StatsErr != "":
			fmt.Printf(", statsz unavailable: %s", t.StatsErr)
		case t.Repl != nil:
			fmt.Printf(", lag %d bytes (%.1fs, caught_up=%v, applied lsn %d)",
				t.Repl.LagBytes, t.Repl.LagSeconds, t.Repl.CaughtUp, t.Repl.AppliedLSN)
		}
		fmt.Println()
	}
	if len(r.TraceStages) > 0 {
		fmt.Printf("  trace stages (spans over %d kept traces):\n", r.TracesKept)
		fmt.Printf("    %-14s %7s %10s %10s %10s\n", "stage", "spans", "p50 ms", "p99 ms", "max ms")
		for _, st := range r.TraceStages {
			fmt.Printf("    %-14s %7d %10.3f %10.3f %10.3f\n",
				st.Stage, st.Spans, st.P50MS, st.P99MS, st.MaxMS)
		}
	}
	if promErr != nil {
		fmt.Printf("  metricsz unavailable: %v\n", promErr)
		return
	}
	for _, io := range r.ServerIO {
		fmt.Printf("  server %s i/o: %.2f pages read/query (p50 %.0f  p99 %.0f), %.2f pool hits/query, hit ratio %.3f",
			io.Endpoint, io.PagesPerQuery, io.P50Pages, io.P99Pages, io.HitsPerQuery, io.HitRatio)
		if io.WritesPerOp > 0 {
			fmt.Printf(", %.2f pages written/op", io.WritesPerOp)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "segload:", err)
	os.Exit(1)
}
