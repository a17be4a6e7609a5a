package server

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"segdb/internal/trace"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4). It is fed by the same SnapshotFrom derivation
// /statsz serves, so the two surfaces expose one registry and can never
// structurally disagree — a counter present here is the same atomic the
// JSON document reports.
//
// Latency histograms are exported in seconds (the Prometheus base unit)
// as cumulative _bucket series; per-query I/O histograms keep their
// natural unit, pages. The last internal bucket of each histogram is an
// overflow bucket whose bound is nominal, so it is folded into le="+Inf"
// rather than exported under a bound it does not honour.
func WritePrometheus(w io.Writer, s Snapshot) {
	p := promWriter{w: w}

	p.scalar("segdb_uptime_seconds", "Seconds since the metric registry was created.", "gauge", s.UptimeSeconds)
	p.scalar("segdb_index_segments", "Segments stored in the served index.", "gauge", float64(s.Segments))

	// Per-endpoint counters, in fixed endpoint order so output is
	// deterministic (the JSON map is not).
	p.family("segdb_requests_total", "Requests reaching each endpoint's handler; the parse endpoint counts bodies that failed to decode.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_requests_total", endpointLabel(name), float64(ep.Requests))
	})
	p.family("segdb_request_errors_total", "Client (4xx) error responses other than sheds.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_request_errors_total", endpointLabel(name), float64(ep.Errors))
	})
	p.family("segdb_request_failures_total", "Server (5xx) error responses.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_request_failures_total", endpointLabel(name), float64(ep.Failures))
	})
	p.family("segdb_requests_shed_total", "Requests shed by admission control (429/503).", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_requests_shed_total", endpointLabel(name), float64(ep.Shed))
	})
	p.family("segdb_answers_total", "Answer segments reported.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_answers_total", endpointLabel(name), float64(ep.Answers))
	})
	p.family("segdb_io_pages_read_total", "Physical pages read attributed to each endpoint's queries.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_io_pages_read_total", endpointLabel(name), float64(ep.IOReads))
	})
	p.family("segdb_io_pool_hits_total", "Buffer-pool hits attributed to each endpoint's queries.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_io_pool_hits_total", endpointLabel(name), float64(ep.IOHits))
	})
	p.family("segdb_io_pages_written_total", "Physical pages written attributed to each endpoint's updates.", "counter")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.sample("segdb_io_pages_written_total", endpointLabel(name), float64(ep.IOWrites))
	})

	// Histograms: request latency (seconds) and per-query I/O (pages).
	p.family("segdb_request_latency_seconds", "Latency of admitted, completed requests.", "histogram")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.histogram("segdb_request_latency_seconds", endpointLabel(name), ep.Latency.Buckets,
			latencySecondsBounds(), ep.Latency.Count, ep.Latency.SumMS/1e3)
	})
	p.family("segdb_query_pages_read", "Physical pages read per request (batch requests sum their queries).", "histogram")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.histogram("segdb_query_pages_read", endpointLabel(name), ep.PagesRead.Buckets,
			IOBucketBounds(), ep.PagesRead.Count, float64(ep.PagesRead.Sum))
	})
	p.family("segdb_query_pool_hits", "Buffer-pool hits per request (batch requests sum their queries).", "histogram")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.histogram("segdb_query_pool_hits", endpointLabel(name), ep.PoolHits.Buckets,
			IOBucketBounds(), ep.PoolHits.Count, float64(ep.PoolHits.Sum))
	})
	p.family("segdb_query_pages_written", "Physical pages written per request; non-zero only on update endpoints.", "histogram")
	p.eachEndpoint(s, func(name string, ep EndpointSnapshot) {
		p.histogram("segdb_query_pages_written", endpointLabel(name), ep.PagesWritten.Buckets,
			IOBucketBounds(), ep.PagesWritten.Count, float64(ep.PagesWritten.Sum))
	})

	// Per-stage latency from the tracer's span observations; present once
	// tracing is on and traffic flowed, in fixed taxonomy order.
	if len(s.Stages) > 0 {
		p.family("segdb_stage_seconds", "Time spent in each request stage by traced requests (span durations; see /tracez).", "histogram")
		for _, st := range trace.StageNames() {
			h, ok := s.Stages[st]
			if !ok {
				continue
			}
			p.histogram("segdb_stage_seconds", stageLabel(st), h.Buckets,
				latencySecondsBounds(), h.Count, h.SumMS/1e3)
		}
	}

	// Admission gate.
	p.scalar("segdb_inflight_requests", "Currently admitted requests.", "gauge", float64(s.Admission.Inflight))
	p.scalar("segdb_inflight_limit", "Admission capacity; load beyond it is shed.", "gauge", float64(s.Admission.MaxInflight))
	p.scalar("segdb_admitted_total", "Requests admitted by the gate.", "counter", float64(s.Admission.Admitted))
	p.scalar("segdb_admission_shed_total", "Requests shed at saturation (429).", "counter", float64(s.Admission.Shed))
	p.scalar("segdb_admission_rejected_total", "Requests rejected while draining (503).", "counter", float64(s.Admission.Rejected))
	p.scalar("segdb_draining", "1 while the server is draining, else 0.", "gauge", boolGauge(s.Admission.Draining))

	// Write path: present only on a read-write server.
	if s.WriteAdmission != nil {
		p.scalar("segdb_inflight_updates", "Currently admitted updates.", "gauge", float64(s.WriteAdmission.Inflight))
		p.scalar("segdb_inflight_updates_limit", "Write-admission capacity; update load beyond it is shed.", "gauge", float64(s.WriteAdmission.MaxInflight))
		p.scalar("segdb_updates_admitted_total", "Updates admitted by the write gate.", "counter", float64(s.WriteAdmission.Admitted))
		p.scalar("segdb_updates_shed_total", "Updates shed at write saturation (429).", "counter", float64(s.WriteAdmission.Shed))
	}
	if s.WAL != nil {
		p.scalar("segdb_wal_records", "Records in the live write-ahead log since the last checkpoint.", "gauge", float64(s.WAL.Records))
		p.scalar("segdb_wal_size_bytes", "Size of the live write-ahead log.", "gauge", float64(s.WAL.SizeBytes))
		p.scalar("segdb_wal_durable_bytes", "Fsync-covered prefix of the write-ahead log.", "gauge", float64(s.WAL.DurableBytes))
		p.scalar("segdb_wal_wedged", "1 once the WAL latched a write/fsync failure and refuses writes, else 0.", "gauge", boolGauge(s.WAL.Wedged))
	}

	// Compaction: present on any server whose Updater can checkpoint.
	if s.Compact != nil {
		p.scalar("segdb_compact_total", "Completed compaction attempts (admin, shutdown and auto).", "counter", float64(s.Compact.Total))
		p.scalar("segdb_compact_failures_total", "Compaction attempts that returned an error.", "counter", float64(s.Compact.Failures))
		p.scalar("segdb_compact_auto_total", "Compactions fired by the background governor.", "counter", float64(s.Compact.Auto))
		p.scalar("segdb_compact_deferred_total", "Due compactions the governor deferred (replication lag guard).", "counter", float64(s.Compact.Deferred))
		p.scalar("segdb_compact_last_age_seconds", "Seconds since the last compaction finished; -1 before the first.", "gauge", s.Compact.LastAgeSeconds)
		p.scalar("segdb_compact_last_duration_seconds", "Run time of the last compaction, nearly all of it beside the writers.", "gauge", s.Compact.LastDurationMS/1e3)
		p.scalar("segdb_compact_last_stall_seconds", "How long the last compaction held the update lock.", "gauge", s.Compact.LastStallMS/1e3)
	}

	// Replication, leader side: shipping counters and per-follower lag.
	if s.ReplLeader != nil {
		p.scalar("segdb_repl_epoch", "Replication epoch: count of WAL rotations at this node.", "gauge", float64(s.ReplLeader.Epoch))
		p.scalar("segdb_repl_snapshots_served_total", "Checkpoint snapshots served to bootstrapping followers.", "counter", float64(s.ReplLeader.SnapshotsServed))
		p.scalar("segdb_repl_wal_requests_total", "WAL shipping requests served.", "counter", float64(s.ReplLeader.WALRequests))
		p.scalar("segdb_repl_wal_bytes_shipped_total", "Committed WAL bytes shipped to followers.", "counter", float64(s.ReplLeader.WALBytesShipped))
		p.scalar("segdb_repl_followers", "Followers seen polling within the staleness window.", "gauge", float64(len(s.ReplLeader.Followers)))
		p.family("segdb_repl_follower_lag_bytes", "Committed log each follower has not yet fetched.", "gauge")
		for _, f := range s.ReplLeader.Followers {
			p.sample("segdb_repl_follower_lag_bytes", followerLabel(f.ID), float64(f.LagBytes))
		}
		p.family("segdb_repl_follower_seconds_since_seen", "Seconds since each follower last polled.", "gauge")
		for _, f := range s.ReplLeader.Followers {
			p.sample("segdb_repl_follower_seconds_since_seen", followerLabel(f.ID), f.SecondsSinceSeen)
		}
	}

	// Replication, follower side: position and lag against the leader.
	if s.Repl != nil {
		if s.ReplLeader == nil { // don't duplicate the family on a node serving both roles
			p.scalar("segdb_repl_epoch", "Replication epoch: count of WAL rotations at this node.", "gauge", float64(s.Repl.Epoch))
		}
		p.scalar("segdb_repl_applied_lsn", "Leader log position this follower has applied through.", "gauge", float64(s.Repl.AppliedLSN))
		p.scalar("segdb_repl_leader_durable_lsn", "Leader durability watermark as of the last poll.", "gauge", float64(s.Repl.LeaderDurableLSN))
		p.scalar("segdb_repl_lag_bytes", "Committed leader log not yet applied locally.", "gauge", float64(s.Repl.LagBytes))
		p.scalar("segdb_repl_lag_seconds", "Seconds since this follower was last caught up.", "gauge", s.Repl.LagSeconds)
		p.scalar("segdb_repl_caught_up", "1 while applied through the leader's watermark, else 0.", "gauge", boolGauge(s.Repl.CaughtUp))
		p.scalar("segdb_repl_records_applied_total", "Replicated records applied into the live index.", "counter", float64(s.Repl.RecordsApplied))
		p.scalar("segdb_repl_resnapshots_total", "Full re-bootstraps forced by leader log rotation.", "counter", float64(s.Repl.Resnapshots))
		p.scalar("segdb_repl_local_wal_records", "Records in the follower's local WAL since its last checkpoint.", "gauge", float64(s.Repl.LocalWALRecords))
	}

	// Store: totals plus the per-shard read-path breakdown (pool load
	// balance), all straight from the shard counters.
	p.scalar("segdb_store_pages_in_use", "Pages allocated in the store: the structure's space cost in blocks.", "gauge", float64(s.Store.PagesInUse))
	p.scalar("segdb_store_page_size_bytes", "Page size of the store.", "gauge", float64(s.Store.PageSize))
	p.scalar("segdb_store_hit_ratio", "Fraction of page reads served by the buffer pool.", "gauge", s.Store.HitRatio)
	p.scalar("segdb_store_reads_total", "Physical page reads.", "counter", float64(s.Store.Total.Reads))
	p.scalar("segdb_store_writes_total", "Physical page writes.", "counter", float64(s.Store.Total.Writes))
	p.scalar("segdb_store_cache_hits_total", "Page reads served by the buffer pool.", "counter", float64(s.Store.Total.CacheHits))
	p.family("segdb_store_shard_reads_total", "Physical page reads by pool shard.", "counter")
	for i, sh := range s.Store.Shards {
		p.sample("segdb_store_shard_reads_total", shardLabel(i), float64(sh.Reads))
	}
	p.family("segdb_store_shard_cache_hits_total", "Buffer-pool hits by pool shard.", "counter")
	for i, sh := range s.Store.Shards {
		p.sample("segdb_store_shard_cache_hits_total", shardLabel(i), float64(sh.CacheHits))
	}

	// Index shards: one labelled row per slab of a sharded store. Absent
	// on a single-index server (no slabs, no rows).
	if len(s.Shards) > 0 {
		p.family("segdb_index_shard_segments", "Segments owned by each index shard (left endpoint inside its slab).", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_segments", shardLabel(sh.Shard), float64(sh.Segments))
		}
		p.family("segdb_index_shard_spanners", "Segments registered on each shard's left-cut spanner list.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_spanners", shardLabel(sh.Shard), float64(sh.Spanners))
		}
		p.family("segdb_index_shard_wal_records", "Records in each shard's live write-ahead log.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_wal_records", shardLabel(sh.Shard), float64(sh.WALRecords))
		}
		p.family("segdb_index_shard_wal_size_bytes", "Size of each shard's live write-ahead log.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_wal_size_bytes", shardLabel(sh.Shard), float64(sh.WALSize))
		}
		p.family("segdb_index_shard_wal_durable_bytes", "Fsync-covered prefix of each shard's write-ahead log.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_wal_durable_bytes", shardLabel(sh.Shard), float64(sh.WALDurable))
		}
		p.family("segdb_index_shard_wal_wedged", "1 once a shard's WAL latched a failure and refuses writes, else 0.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_wal_wedged", shardLabel(sh.Shard), boolGauge(sh.WALWedged))
		}
		p.family("segdb_index_shard_pages_in_use", "Pages allocated in each shard's store.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_pages_in_use", shardLabel(sh.Shard), float64(sh.PagesInUse))
		}
		p.family("segdb_index_shard_reads_total", "Physical page reads of each shard's store.", "counter")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_reads_total", shardLabel(sh.Shard), float64(sh.IO.Reads))
		}
		p.family("segdb_index_shard_cache_hits_total", "Buffer-pool hits of each shard's store.", "counter")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_cache_hits_total", shardLabel(sh.Shard), float64(sh.IO.CacheHits))
		}
		p.family("segdb_index_shard_hit_ratio", "Fraction of each shard's page reads served by its pool.", "gauge")
		for _, sh := range s.Shards {
			p.sample("segdb_index_shard_hit_ratio", shardLabel(sh.Shard), sh.HitRatio)
		}
	}

	if s.SlowLog != nil {
		p.scalar("segdb_slow_requests_total", "Requests that crossed a slow-query threshold.", "counter", float64(s.SlowLog.Total))
	}
}

// latencySecondsBounds returns the latency bucket upper bounds in
// seconds.
func latencySecondsBounds() []float64 {
	ms := BucketBoundsMS()
	out := make([]float64, len(ms))
	for i, b := range ms {
		out[i] = b / 1e3
	}
	return out
}

func endpointLabel(name string) string { return `endpoint="` + name + `"` }

func stageLabel(name string) string { return `stage="` + name + `"` }

func shardLabel(i int) string { return `shard="` + strconv.Itoa(i) + `"` }

// followerLabel escapes a follower ID for use as a label value —
// follower names come off the wire, so quote/backslash/newline must be
// escaped per the exposition format.
func followerLabel(id string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return `follower="` + r.Replace(id) + `"`
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promWriter accumulates exposition-format lines. Families must be
// emitted contiguously (one HELP/TYPE block followed by all samples of
// the family) — the format forbids interleaving.
type promWriter struct {
	w io.Writer
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// scalar writes a family that is one unlabelled sample, naming it once.
func (p *promWriter) scalar(name, help, typ string, v float64) {
	p.family(name, help, typ)
	p.sample(name, "", v)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p.w, "%s%s %s\n", name, labels, formatPromValue(v))
}

// histogram writes one labelled series' cumulative _bucket samples plus
// _sum and _count. labels is the series' label pairs without braces
// (e.g. `endpoint="query"` or `stage="wal_fsync"`); buckets is the
// non-empty prefix of per-bucket counts; bounds the full upper-bound
// list in the exported unit. The final internal bucket is an overflow
// bucket, so observations in it appear only under le="+Inf".
func (p *promWriter) histogram(name, labels string, buckets []int64, bounds []float64, count int64, sum float64) {
	var cum int64
	for i, c := range buckets {
		cum += c
		if i == len(bounds)-1 {
			break // overflow bucket: folded into +Inf below
		}
		p.sample(name+"_bucket", labels+`,le="`+formatPromValue(bounds[i])+`"`, float64(cum))
	}
	p.sample(name+"_bucket", labels+`,le="+Inf"`, float64(count))
	p.sample(name+"_sum", labels, sum)
	p.sample(name+"_count", labels, float64(count))
}

func (p *promWriter) eachEndpoint(s Snapshot, f func(name string, ep EndpointSnapshot)) {
	for _, name := range endpointNames {
		if ep, ok := s.Endpoints[name]; ok {
			f(name, ep)
		}
	}
}

// formatPromValue renders a float the way Prometheus expects: shortest
// round-trip representation ("1e+06" for large counters is valid
// exposition format).
func formatPromValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PromText renders the snapshot to a string; tests and tools use it.
func PromText(s Snapshot) string {
	var b strings.Builder
	WritePrometheus(&b, s)
	return b.String()
}
