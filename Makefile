GO ?= go

.PHONY: all build vet test race bench-test benchmark fuzz-smoke serve-smoke repl-smoke shard-smoke trace-smoke wal-crash ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Includes the I/O invariant: cmd/segbench's test reruns every
# experiment and requires the tables recorded in EXPERIMENTS.md.
test:
	$(GO) test ./...

# Race-detector gate: every concurrency-sensitive test (pager races,
# singleflight, QueryBatch, SyncIndex stress, server admission/drain,
# crash matrix, compaction vs concurrent commits and its seeded
# interleaving oracle, MemDevice snapshots under writers, segdbd's run
# per serving mode) must pass under -race.
race:
	$(GO) test -race -run 'Concurrent|Race|Sync|Singleflight|Batch|Admission|Drain|Gate|Histogram|Serve|Crash|Repl|Shard|Compact|Run' ./internal/pager ./internal/server ./...

# The repo's benchmark (BENCHMARK.json): bench/ is a Go module of its
# own, so the root module's build and test do not see it.
bench-test:
	$(GO) test -C bench ./...

benchmark:
	bash bench/run.sh

# Short coverage-guided runs of every fuzz target (go test -fuzz takes
# one target per invocation): the structures and geometry, then the four
# decoders of untrusted bytes — an index file's header, shipped WAL
# frames, an inbound traceparent, a scraped /metricsz.
FUZZ = $(GO) test -fuzztime 20s -run '^$$' -fuzz
fuzz-smoke:
	$(FUZZ) FuzzBuildQuery .
	$(FUZZ) FuzzRelateSymmetry ./internal/geom
	$(FUZZ) FuzzPlanarize ./internal/geom
	$(FUZZ) FuzzShardRoute .
	$(FUZZ) FuzzProbeFile .
	$(FUZZ) FuzzDecodeFrames ./internal/wal
	$(FUZZ) FuzzParseTraceparent ./internal/trace
	$(FUZZ) FuzzParsePrometheus ./internal/server

# The end-to-end gates are Go tests over one harness (cmd/segdbd/
# e2e_test.go: build the three binaries once, real child processes on
# free ports, typed scrapers, kill -9). They skip unless SEGDB_E2E is set.
E2E = SEGDB_E2E=1 $(GO) test -count=1 -timeout 10m ./cmd/segdbd -run

# Serving: gen → build → segdbd → segload → /statsz, /metricsz, slow log,
# tracing; then -wal: insert → kill -9 → survival → shutdown checkpoint.
serve-smoke:
	$(E2E) '^TestE2EServe$$'

# Replication: leader + follower, segload read split, batch differential,
# kill -9 the follower mid-stream, WAL rotation with re-snapshot, lag
# series on /metricsz, auto-compaction under a write burst.
repl-smoke:
	$(E2E) '^TestE2ERepl$$'

# Sharding: segdb shard → segdbd -shards=4 → mixed segload run → kill -9
# mid-write → restart → differential vs unsharded → per-slab auto-compact.
shard-smoke:
	$(E2E) '^TestE2EShard$$'

# Tracing: traceparent round trip, /tracez span trees over shard fan-out
# and the WAL write path, stage histograms, the trace-linked slow log,
# segload -trace, and tracing-off going dark.
trace-smoke:
	$(E2E) '^TestE2ETrace$$'

# WAL crash-matrix gate: kill the log at every record boundary and the
# checkpoint at every step, then recover and verify — under -race. The
# shard matrices kill one shard's WAL/checkpoint while the others commit.
# The ...Carry matrices (DurableCrashMatrixCheckpointCarry,
# ShardCrashMatrixCompactCarry) commit writes from inside the off-lock
# page copy, so the publish has changed pages to write under the lock
# when the device or the log dies. The ReplFollowerCrash matrices kill a
# follower's local log and its tailing-triggered checkpoints.
wal-crash:
	$(GO) test -race -run 'DurableCrash|DurableCheckpoint|WALCrash|TornTail|ShardCrash|ReplFollowerCrash' . ./internal/wal ./internal/shard ./internal/repl

ci: vet build test race wal-crash serve-smoke repl-smoke shard-smoke trace-smoke bench-test
