package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"segdb"
	"segdb/internal/repl"
	"segdb/internal/server"
	"segdb/internal/shard"
)

// engine is what the four serving modes differ in, and nothing else: run
// wires any engine to the server, the governor and the listener the same
// way. Each mode has one constructor below; no other code in the package
// asks which mode it is serving.
type engine struct {
	ix       server.Index
	st       *segdb.Store    // nil for a sharded store, which has no single pager
	updater  server.Updater  // nil: read-only
	leader   *repl.Leader    // nil: not a replication leader
	follower server.Follower // nil: not a read replica

	// The compaction governor's inputs. No units, no governor.
	units        []segdb.CompactUnit
	parallel     int                   // units compacted at once; 0: one
	deferCompact func() (string, bool) // the leader's replication lag guard; nil: never defer

	// tail, if set, runs from the moment the server exists until
	// shutdown: the follower's replication loop.
	tail func(context.Context)
	// srv is the server run built over this engine, assigned before tail
	// starts; a follower's re-snapshot repoints it at the new index.
	srv *server.Server

	// shutdown makes the mode's state durable and closes it, in the
	// mode's own order. It runs once, after the server has drained and
	// tail and the governor have returned.
	shutdown func() error
}

// openEngine opens cfg's serving mode: -shards scatter-gathers over a
// sharded store directory (read-write, per-shard WALs), -follow tails a
// leader as a read replica, -wal serves a single index read-write
// (checkpoint file + write-ahead log, replayed at open) and doubles as a
// replication leader, and the default serves the file read-only straight
// off its store. ctx bounds the one constructor that uses the network.
func openEngine(ctx context.Context, cfg config) (*engine, error) {
	switch {
	case cfg.shards != 0:
		return openSharded(cfg)
	case cfg.follow != "":
		return openFollower(ctx, cfg)
	case cfg.walPath != "":
		return openLeader(cfg)
	default:
		return openReadOnly(cfg)
	}
}

// verified runs -verify's check over -db, if asked for. Every constructor
// calls it at the point its file exists.
func verified(cfg config, check func(path string) error, what string) error {
	if !cfg.verify {
		return nil
	}
	if err := check(cfg.db); err != nil {
		return fmt.Errorf("refusing to serve: %w", err)
	}
	log.Printf("segdbd: %s verified (%s)", cfg.db, what)
	return nil
}

// step names a shutdown step's error; nil stays nil.
func step(name string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", name, err)
}

func openReadOnly(cfg config) (*engine, error) {
	if err := verified(cfg, segdb.VerifyIndexFile, "checksums + structural walk"); err != nil {
		return nil, err
	}
	st, ix, err := segdb.OpenIndexFile(cfg.db, cfg.b, cfg.cache)
	if err != nil {
		return nil, err
	}
	log.Printf("segdbd: %s: %d segments, %d pages of %d bytes, %d pool shards",
		cfg.db, ix.Len(), st.PagesInUse(), st.PageSize(), st.Shards())
	return &engine{
		ix: segdb.SynchronizedOn(ix, st),
		st: st,
		shutdown: func() error {
			return errors.Join(step("sync", st.Sync()), step("close", st.Close()))
		},
	}, nil
}

func openLeader(cfg config) (*engine, error) {
	if err := verified(cfg, segdb.VerifyIndexFile, "checksums + structural walk"); err != nil {
		return nil, err
	}
	dix, err := segdb.OpenDurableIndex(cfg.db, cfg.walPath, segdb.DurableOptions{
		Build:             segdb.Options{B: cfg.b},
		CachePages:        cfg.cache,
		GroupCommitWindow: cfg.groupCommit,
	})
	if err != nil {
		return nil, err
	}
	records, _, _ := dix.WALStats()
	log.Printf("segdbd: %s + %s: %d segments (%d wal records), read-write",
		cfg.db, cfg.walPath, dix.Index().Len(), records)
	// A read-write server is a replication leader: followers bootstrap
	// from its checkpoint and tail its committed log.
	leader := repl.NewLeader(dix)
	e := &engine{
		ix:      dix.Index(),
		st:      dix.Store(),
		updater: dix,
		leader:  leader,
		units:   []segdb.CompactUnit{dix},
		// A graceful stop checkpoints: the live pages are copied into the
		// index file through the shadow commit and the log rotates empty,
		// so the next open replays nothing.
		shutdown: func() error {
			return errors.Join(step("checkpoint", dix.Compact()), step("close", dix.Close()))
		},
	}
	// The lag guard defers rotation while a follower is actively tailing
	// close to the tip: rotating would force it to re-bootstrap.
	if guard := cfg.compactLagGuard; guard > 0 {
		e.deferCompact = func() (string, bool) {
			if lag, id, ok := leader.ActiveTailLag(); ok && lag <= guard {
				return fmt.Sprintf("follower %q tailing %d bytes behind (guard %d)", id, lag, guard), true
			}
			return "", false
		}
	}
	return e, nil
}

func openFollower(ctx context.Context, cfg config) (*engine, error) {
	localWAL := cfg.walPath
	if localWAL == "" {
		localWAL = cfg.db + ".wal"
	}
	e := &engine{}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	fol, err := repl.Open(ctx, repl.Config{
		Leader:         cfg.follow,
		DB:             cfg.db,
		WAL:            localWAL,
		ID:             cfg.followerID,
		Durable:        segdb.DurableOptions{Build: segdb.Options{B: cfg.b}, CachePages: cfg.cache},
		CompactRecords: cfg.replicaCompact,
		Logf:           log.Printf,
		// A re-snapshot replaces the local index; repoint the server at
		// it. Swaps only happen on the tail goroutine, which starts after
		// e.srv is assigned; the initial install during Open runs here
		// with it still nil.
		OnSwap: func(ix *segdb.SyncIndex, st *segdb.Store) {
			if e.srv != nil {
				e.srv.SwapIndex(ix, st)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	// Only now is there a file to verify: on a first boot -db is what the
	// bootstrap just downloaded.
	if err := verified(cfg, segdb.VerifyIndexFile, "checksums + structural walk"); err != nil {
		fol.Close()
		return nil, err
	}
	fst := fol.Status()
	log.Printf("segdbd: following %s as %q: %d segments at epoch %d lsn %d",
		cfg.follow, fst.ID, fol.Index().Len(), fst.Epoch, fst.AppliedLSN)
	e.ix, e.st, e.follower = fol.Index(), fol.Store(), fol
	e.tail = func(ctx context.Context) { fol.Run(ctx) }
	// Run owns all state transitions, so once it has returned the local
	// index is quiescent and Close can checkpoint it (the next start
	// resumes from the mark, no replay).
	e.shutdown = func() error { return step("close", fol.Close()) }
	return e, nil
}

func openSharded(cfg config) (*engine, error) {
	if err := verified(cfg, shard.Verify, "every shard: checksums + structural walk"); err != nil {
		return nil, err
	}
	shs, err := shard.Open(cfg.db, shard.Config{
		Shards: cfg.shards,
		Durable: segdb.DurableOptions{
			Build:             segdb.Options{B: cfg.b},
			CachePages:        cfg.cache,
			GroupCommitWindow: cfg.groupCommit,
		},
	})
	if err != nil {
		return nil, err
	}
	records, _, _ := shs.WALStats()
	log.Printf("segdbd: %s: %d segments across %d shards (cuts %v, %d wal records, %d pool pages/shard), read-write",
		cfg.db, shs.Len(), shs.Shards(), shs.Cuts(), records, cfg.cache)
	return &engine{
		ix: shs,
		// A sharded store is read-write through the same Updater surface;
		// its Compact (every shard in parallel) backs /v1/admin/compact.
		// WAL shipping is a single-log protocol, so no replication leader.
		updater: shs,
		// Each slab is its own unit, compacted only when its own WAL
		// trips, staggered under the store's worker bound.
		units:    shs.CompactUnits(),
		parallel: shs.Workers(),
		// A graceful stop checkpoints every shard in parallel and rotates
		// every per-shard log, so the next open replays nothing.
		shutdown: func() error {
			return errors.Join(step("checkpoint", shs.Compact()), step("close", shs.Close()))
		},
	}, nil
}
