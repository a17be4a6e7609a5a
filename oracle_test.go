package segdb_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"segdb"
	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/shard"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// The interleaving oracle for the durable slice: one seed fixes every
// lane's op sequence; the goroutine schedule is whatever the run (and
// -race) makes of it. Writers, deleters and queries run beside
// back-to-back compactions, and after every rotation the on-disk state
// is copied, reopened and compared with the live index and with a
// brute-force model.

// oracleSubject is what the oracle drives: a DurableIndex, or a sharded
// store of them.
type oracleSubject struct {
	insert  func(segdb.Segment) error
	delete  func(segdb.Segment) error
	compact func() error
	query   func(segdb.Query) ([]segdb.Segment, error)
	collect func() ([]segdb.Segment, error)
	close   func() error
}

func durableSubject(d *segdb.DurableIndex) oracleSubject {
	return oracleSubject{
		insert:  func(s segdb.Segment) error { _, err := d.Insert(s); return err },
		delete:  func(s segdb.Segment) error { _, _, err := d.Delete(s); return err },
		compact: d.Compact,
		query:   func(q segdb.Query) ([]segdb.Segment, error) { return segdb.CollectQuery(d.Index(), q) },
		collect: d.Index().Collect,
		close:   d.Close,
	}
}

func shardSubject(s *shard.Store) oracleSubject {
	return oracleSubject{
		insert:  func(sg segdb.Segment) error { _, err := s.Insert(sg); return err },
		delete:  func(sg segdb.Segment) error { _, _, err := s.Delete(sg); return err },
		compact: s.Compact,
		query: func(q segdb.Query) (out []segdb.Segment, err error) {
			_, err = s.QueryContext(context.Background(), q, func(sg segdb.Segment) { out = append(out, sg) })
			return out, err
		},
		collect: s.Collect,
		close:   s.Close,
	}
}

// idList is a segment set as its sorted IDs, failing on a duplicate.
func idList(t *testing.T, tag string, segs []segdb.Segment) []uint64 {
	t.Helper()
	ids := sortedIDs(segs)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("%s: segment %d present twice", tag, ids[i])
		}
	}
	return ids
}

// checkAgainstModel requires sub to hold exactly model and to answer
// every query as a linear filter of model does.
func checkAgainstModel(t *testing.T, tag string, sub oracleSubject, model []segdb.Segment, queries []segdb.Query) {
	t.Helper()
	got, err := sub.collect()
	if err != nil {
		t.Fatalf("%s: collect: %v", tag, err)
	}
	if !sameIDs(idList(t, tag, got), idList(t, tag+" model", model)) {
		t.Fatalf("%s: holds %d segments, the model %d", tag, len(got), len(model))
	}
	for _, q := range queries {
		hits, err := sub.query(q)
		if err != nil {
			t.Fatalf("%s: query %v: %v", tag, q, err)
		}
		if !sameIDs(idList(t, tag, hits), sortedIDs(segdb.FilterHits(q, model))) {
			t.Fatalf("%s: query %v: %d hits, FilterHits over the model %d", tag, q, len(hits), len(segdb.FilterHits(q, model)))
		}
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runInterleavingOracle drives sub, which lives in dir and already holds
// base, and reopens copies of dir with reopen.
func runInterleavingOracle(t *testing.T, seed int64, dir string, sub oracleSubject, base, pool []segdb.Segment,
	reopen func(dir string) (oracleSubject, error)) {
	const lanes = 3
	box := workload.BBox(append(append([]segdb.Segment(nil), base...), pool...))
	queries := workload.RandomVS(rand.New(rand.NewSource(seed+100)), 16, box, (box.MaxY-box.MinY)/6)
	queries = append(queries, workload.RandomStabs(rand.New(rand.NewSource(seed+101)), 4, box)...)

	// world is the oracle's only intrusion: every write holds it shared,
	// so taking it exclusively gives the checker a quiescent instant. It
	// is never held while a compaction runs.
	var world sync.RWMutex
	present := make([]map[uint64]segdb.Segment, lanes) // lane's own segments now stored; guarded by world
	var writers sync.WaitGroup
	errs := make(chan error, lanes+1)
	for lane := 0; lane < lanes; lane++ {
		present[lane] = map[uint64]segdb.Segment{}
		var own []segdb.Segment
		for i := lane; i < len(pool); i += lanes {
			own = append(own, pool[i])
		}
		writers.Add(1)
		go func(lane int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed + int64(lane)))
			mine := present[lane]
			var gone []segdb.Segment
			for next := 0; next < len(own) || len(gone) > 0; {
				world.RLock()
				var err error
				switch r := rng.Intn(10); {
				case r < 3 && len(mine) > 0: // delete one of its own, pseudo-randomly
					ids := make([]uint64, 0, len(mine))
					for id := range mine {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
					victim := mine[ids[rng.Intn(len(ids))]]
					if err = sub.delete(victim); err == nil {
						delete(mine, victim.ID)
						if rng.Intn(2) == 0 {
							gone = append(gone, victim)
						}
					}
				case r < 5 && len(gone) > 0: // bring a deleted one back
					back := gone[len(gone)-1]
					gone = gone[:len(gone)-1]
					if err = sub.insert(back); err == nil {
						mine[back.ID] = back
					}
				case next < len(own):
					if err = sub.insert(own[next]); err == nil {
						mine[own[next].ID] = own[next]
						next++
					}
				default:
					gone = gone[:0] // pool exhausted: stop resurrecting, finish
				}
				world.RUnlock()
				if err != nil {
					errs <- fmt.Errorf("lane %d: %w", lane, err)
					return
				}
			}
		}(lane)
	}
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()

	// The query lane holds no lock: beside writers an answer cannot be
	// compared with the model, but it must contain every base hit (base
	// is never written) and nothing that misses the query.
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(seed + 50))
		for {
			select {
			case <-done:
				return
			default:
			}
			q := queries[rng.Intn(len(queries))]
			hits, err := sub.query(q)
			if err != nil {
				errs <- fmt.Errorf("query lane: %w", err)
				return
			}
			got := map[uint64]bool{}
			for _, h := range hits {
				got[h.ID] = true
			}
			for _, b := range segdb.FilterHits(q, base) {
				if !got[b.ID] {
					errs <- fmt.Errorf("query lane: %v missed base segment %d", q, b.ID)
					return
				}
			}
			if len(segdb.FilterHits(q, hits)) != len(hits) {
				errs <- fmt.Errorf("query lane: %v answered a segment it does not meet", q)
				return
			}
		}
	}()

	rotations := 0
	for running := true; running; {
		select {
		case <-done:
			running = false // one last rotation over the final state
		default:
		}
		if err := sub.compact(); err != nil {
			t.Fatalf("compaction %d: %v", rotations, err)
		}
		rotations++
		tag := fmt.Sprintf("rotation %d", rotations)

		world.Lock()
		model := append([]segdb.Segment(nil), base...)
		for _, mine := range present {
			for _, s := range mine {
				model = append(model, s)
			}
		}
		copyTo := t.TempDir()
		copyDir(t, dir, copyTo)
		checkAgainstModel(t, tag+", live", sub, model, queries)
		world.Unlock()

		re, err := reopen(copyTo)
		if err != nil {
			t.Fatalf("%s: reopen the copied files: %v", tag, err)
		}
		checkAgainstModel(t, tag+", reopened copy", re, model, queries)
		if err := re.close(); err != nil {
			t.Fatalf("%s: close the reopened copy: %v", tag, err)
		}
	}
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if rotations < 3 {
		t.Fatalf("only %d rotations ran beside the writers", rotations)
	}
	t.Logf("seed %d: %d rotations checked", seed, rotations)
}

// TestDurableCompactInterleavingOracle runs the oracle on one
// DurableIndex and on a K = 4 sharded store, then the failure case: a
// log that wedges while a compaction is building. Run under -race.
func TestDurableCompactInterleavingOracle(t *testing.T) {
	const seed = 1998
	universe := workload.Grid(rand.New(rand.NewSource(seed)), 12, 10, 0.9, 0.2)
	rand.New(rand.NewSource(seed+1)).Shuffle(len(universe), func(a, b int) { universe[a], universe[b] = universe[b], universe[a] })
	base, pool := universe[:len(universe)/3], universe[len(universe)/3:]
	dopt := segdb.DurableOptions{Build: segdb.Options{B: 16}}

	t.Run("plain", func(t *testing.T) {
		dir := t.TempDir()
		open := func(dir string) (*segdb.DurableIndex, error) {
			return segdb.OpenDurableIndex(filepath.Join(dir, "ix.db"), filepath.Join(dir, "ix.wal"), dopt)
		}
		d, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for _, s := range base {
			if _, err := d.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		runInterleavingOracle(t, seed, dir, durableSubject(d), base, pool, func(dir string) (oracleSubject, error) {
			d, err := open(dir)
			if err != nil {
				return oracleSubject{}, err
			}
			return durableSubject(d), nil
		})
	})

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		cfg := shard.Config{Shards: 4, Durable: dopt}
		s, err := shard.Create(dir, cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		runInterleavingOracle(t, seed, dir, shardSubject(s), base, pool, func(dir string) (oracleSubject, error) {
			s, err := shard.Open(dir, cfg)
			if err != nil {
				return oracleSubject{}, err
			}
			return shardSubject(s), nil
		})
	})

	// The log dies while the live pages are being copied: a write beside
	// the copy fails and latches the wedge. The compaction must come
	// back with that latched error instead of publishing, and the old
	// checkpoint plus the full log must recover every acknowledged write.
	t.Run("wedge", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ix.db")
		f := wal.NewFaultFile(seed)
		var d *segdb.DurableIndex
		var writeErr error
		wedged := dopt
		wedged.WALFile = f
		wedged.CheckpointDevice = func(dev pager.Device) pager.Device {
			return &faultdev.Tap{Device: dev, BeforeWrite: func(write, _ int) {
				if write == 2 && d != nil {
					f.Crash()
					_, writeErr = d.Insert(pool[0])
				}
			}}
		}
		d, err := segdb.OpenDurableIndex(path, "", wedged)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range base {
			if _, err := d.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		err = d.Compact()
		if writeErr == nil {
			t.Fatal("the write beside the copy was acknowledged by a dead log")
		}
		if latched := d.WALWedged(); err == nil || !errors.Is(err, wal.ErrFileCrashed) || err.Error() != latched.Error() {
			t.Fatalf("Compact over a log that wedged mid-copy returned %v, want the latched %v", err, latched)
		}
		d.Close()
		if _, err := os.Stat(path + ".tmp"); err == nil {
			t.Fatal("aborted compaction left its shadow behind")
		}
		if err := segdb.VerifyIndexFile(path); err != nil {
			t.Fatal(err)
		}
		reboot := dopt
		reboot.WALFile = wal.NewFaultFileFrom(seed, f.DurableImage())
		re, err := segdb.OpenDurableIndex(path, "", reboot)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		checkAgainstModel(t, "after the wedge", durableSubject(re), base, nil)
	})
}
