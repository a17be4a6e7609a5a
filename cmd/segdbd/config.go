package main

import (
	"errors"
	"flag"
	"os"
	"time"

	"segdb/internal/server"
)

// config is everything the command line decides. Flags that are a
// server.Config field bind straight into server; run adds what only the
// opened engine can supply (Updater, Repl, Follower) and the JSONL sinks.
type config struct {
	db        string
	b         int
	cache     int // pool pages per index: -cache, split across the shards in -shards mode
	addr      string
	debugAddr string
	drainWait time.Duration
	verify    bool
	slowLog   string
	traceLog  string

	walPath     string
	groupCommit time.Duration
	shards      int

	follow         string
	followerID     string
	replicaCompact int64

	autoCompactRecords  int64
	autoCompactInterval time.Duration
	compactLagGuard     int64

	server server.Config
}

// newFlagSet declares every segdbd flag, bound into c. It is the one list
// `segdbd -h` prints and the README flag tables are pinned to.
func newFlagSet(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.StringVar(&c.db, "db", "index.db", "store file built by segdb build")
	fs.IntVar(&c.b, "b", 0, "block capacity; 0 probes the file")
	fs.IntVar(&c.cache, "cache", 256, "buffer-pool pages")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "separate listener for net/http/pprof; empty disables")
	fs.IntVar(&c.server.MaxInflight, "max-inflight", 64, "admission limit; excess load is shed with 429")
	fs.DurationVar(&c.server.DefaultTimeout, "timeout", 5*time.Second, "per-request deadline")
	fs.DurationVar(&c.server.RetryAfter, "retry-after", time.Second, "Retry-After hint on shed responses")
	fs.IntVar(&c.server.MaxBatch, "max-batch", 1024, "max queries per batch request")
	fs.IntVar(&c.server.BatchParallelism, "batch-workers", 4, "QueryBatch workers per batch request")
	fs.DurationVar(&c.drainWait, "drain-wait", 30*time.Second, "graceful-shutdown budget")
	fs.BoolVar(&c.verify, "verify", false, "verify the whole index file (checksums + structural walk) before serving")
	fs.Float64Var(&c.server.DeepProbeX, "probe-x", 0, "x of the stabbing query run by /healthz?deep=1")
	fs.DurationVar(&c.server.SlowLatency, "slow-latency", 250*time.Millisecond, "slow-query latency threshold; 0 logs every request")
	fs.Int64Var(&c.server.SlowIOPages, "slow-io", 0, "slow-query I/O threshold in physical pages read; 0 disables")
	fs.IntVar(&c.server.SlowLogSize, "slow-ring", 128, "slow-query ring capacity (/statsz?slow=1)")
	fs.StringVar(&c.slowLog, "slow-log", "", "append slow-query entries as JSONL to this file")
	fs.Float64Var(&c.server.TraceSample, "trace-sample", 0, "request-trace head-sampling probability in (0,1]; 0 disables tracing (/tracez stays empty)")
	fs.IntVar(&c.server.TraceRing, "trace-ring", 64, "kept-trace ring capacity behind /tracez")
	fs.StringVar(&c.traceLog, "trace-log", "", "append kept traces as JSONL to this file (requires -trace-sample > 0)")
	fs.StringVar(&c.walPath, "wal", "", "write-ahead log path; enables POST /v1/insert and /v1/delete (requires a Solution 1 index)")
	fs.DurationVar(&c.groupCommit, "group-commit-window", 0, "group-commit window: how long an update fsync lingers for concurrent writers to share it")
	fs.IntVar(&c.server.MaxInflightUpdates, "max-inflight-updates", 16, "write-admission limit; excess update load is shed with 429")
	fs.IntVar(&c.shards, "shards", 0, "serve a sharded store directory built by `segdb shard` (-db names the directory, value must match its manifest); 0 serves a single index file")
	fs.StringVar(&c.follow, "follow", "", "leader base URL; serve as a read replica tailing its WAL (writes answer 503)")
	fs.StringVar(&c.followerID, "follower-id", "", "name reported to the leader's lag table; defaults to the hostname")
	fs.DurationVar(&c.server.MaxReplicaLag, "max-replica-lag", 10*time.Second, "replica staleness budget: /healthz?deep=1 fails beyond it; <=0 disables")
	fs.Int64Var(&c.replicaCompact, "replica-compact-records", 65536, "local WAL records that trigger a replica checkpoint; <0 disables")
	fs.Int64Var(&c.autoCompactRecords, "auto-compact-records", 0, "WAL records that trigger a background compaction (per shard in -shards mode); 0 disables the record trigger")
	fs.DurationVar(&c.autoCompactInterval, "auto-compact-interval", time.Second, "how often the compaction governor polls the WAL thresholds")
	fs.Int64Var(&c.compactLagGuard, "compact-lag-guard", 1<<20, "defer auto-compaction while a follower is actively tailing within this many bytes of the tip (it would be forced to re-bootstrap); 0 disables, and a WAL at twice a trigger threshold overrides the guard")
	fs.DurationVar(&c.server.SlowCompact, "slow-compact", time.Second, "compaction latency budget: longer compactions land in the slow log; <0 disables")
	return fs
}

// parseFlags turns the command line into a config, rejecting flag
// combinations no serving mode accepts before anything is opened. A
// malformed flag has already been reported on stderr by the flag package
// when its error comes back; -h returns flag.ErrHelp after the usage.
func parseFlags(args []string) (config, error) {
	var c config
	if err := newFlagSet(&c).Parse(args); err != nil {
		return c, err
	}

	if c.shards != 0 {
		if c.follow != "" || c.walPath != "" {
			return c, errors.New("-shards is exclusive with -follow and -wal (each shard has its own WAL in the store directory)")
		}
		// Split the pool budget so a sharded store uses the same total
		// memory a single index would with the same -cache.
		if c.cache /= c.shards; c.cache < 16 {
			c.cache = 16
		}
	}
	if c.traceLog != "" && c.server.TraceSample <= 0 {
		return c, errors.New("-trace-log requires -trace-sample > 0")
	}
	// -slow-latency 0 means "log everything": the server treats 0 as
	// "use the default" and negative as "off", so map it to the smallest
	// positive threshold.
	if c.server.SlowLatency == 0 {
		c.server.SlowLatency = time.Nanosecond
	}
	return c, nil
}
