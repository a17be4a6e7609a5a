package shard

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"segdb"
	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// applyOp routes one shardOp into the store, failing the test on error.
func applyOp(t *testing.T, s *Store, i int, op shardOp) {
	t.Helper()
	var err error
	if op.del {
		_, _, err = s.Delete(op.seg)
	} else {
		_, err = s.Insert(op.seg)
	}
	if err != nil {
		t.Fatalf("op %d: %v", i, err)
	}
}

// TestShardCompactAggregatesErrors fails TWO slabs' checkpoint rebuilds
// in one store-wide Compact: the aggregated error must name both failed
// shards (an operator retrying a compaction needs the full casualty
// list, not the first victim), the healthy shard must not be blamed,
// the failed slabs must stay un-rotated and serving, and a reboot must
// open cleanly with the complete pre-compact state.
func TestShardCompactAggregatesErrors(t *testing.T) {
	cuts, ops, owners := crashWorkload(777)
	want := applyShardOps(ops, owners, countOwned(owners, victim))

	dir := t.TempDir()
	wals := healthyWALs(0)
	cfg := crashConfig(cuts, wals)
	base := cfg.PerShard
	cfg.PerShard = func(k int, dopt *segdb.DurableOptions) {
		base(k, dopt)
		if k == 0 || k == 2 {
			dopt.CheckpointDevice = func(dev pager.Device) pager.Device {
				fd := faultdev.New(dev, int64(k))
				fd.CrashAt(1)
				return fd
			}
		}
	}
	s, err := Create(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		applyOp(t, s, i, op)
	}
	err = s.Compact()
	if err == nil {
		t.Fatal("Compact succeeded with two shards' checkpoint devices dead")
	}
	msg := err.Error()
	if !strings.Contains(msg, "shard 0") || !strings.Contains(msg, "shard 2") {
		t.Fatalf("aggregated error names only part of the casualty list: %v", err)
	}
	if strings.Contains(msg, "shard 1") {
		t.Fatalf("aggregated error blames the healthy shard: %v", err)
	}

	// The failed slabs were not rotated: the store still answers the
	// full workload, boundaries included.
	got, err := s.Collect()
	if err != nil {
		t.Fatalf("collect after failed compact: %v", err)
	}
	if !sameIDSet(got, want) {
		t.Fatalf("after failed compact: %d segments, want %d", len(got), len(want))
	}
	for _, c := range cuts {
		q := segdb.VLine(c)
		if !sameIDSet(collectStore(t, s, q), segdb.FilterHits(q, want)) {
			t.Fatalf("boundary query at x=%v diverged after failed compact", c)
		}
	}
	s.Close()

	// Reboot with healthy checkpoint devices: the un-rotated logs replay.
	s2, err := Open(dir, crashConfig(cuts, rebootWALs(0, wals)))
	if err != nil {
		t.Fatalf("recovery open after failed compact: %v", err)
	}
	defer s2.Close()
	got, err = s2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDSet(got, want) {
		t.Fatalf("recovered %d segments, want %d", len(got), len(want))
	}
}

// TestShardCrashMatrixCompactConcurrent is the crash-matrix entry for
// compaction overlapping commits across shards: shard j (the victim)
// crashes mid-checkpoint-rebuild at every device operation while shard
// 2 is concurrently acknowledging writes. Compact must report failure,
// every concurrent commit must be acknowledged, and the rebooted store
// must recover workload + concurrent commits without ErrPartial.
func TestShardCrashMatrixCompactConcurrent(t *testing.T) {
	cuts, ops, owners := crashWorkload(801)

	// Concurrent commits: shard-2-owned segments under fresh IDs.
	var extra []segdb.Segment
	for _, op := range ops {
		if len(extra) == 12 {
			break
		}
		if !op.del && slabOf(cuts, op.seg.MinX()) == 2 {
			e := op.seg
			e.ID = 900000 + uint64(len(extra))
			extra = append(extra, e)
		}
	}
	if len(extra) != 12 {
		t.Fatalf("workload yielded only %d shard-2 segments", len(extra))
	}
	want := append(applyShardOps(ops, owners, countOwned(owners, victim)), extra...)

	// Counting run bounds the matrix (same discipline as the checkpoint
	// matrix: a pass-through device on the victim's rebuild).
	var ctr *faultdev.Device
	cfg := crashConfig(cuts, healthyWALs(0))
	base := cfg.PerShard
	cfg.PerShard = func(k int, dopt *segdb.DurableOptions) {
		base(k, dopt)
		if k == victim {
			dopt.CheckpointDevice = func(dev pager.Device) pager.Device {
				ctr = faultdev.New(dev, 0)
				return ctr
			}
		}
	}
	s, err := Create(t.TempDir(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		applyOp(t, s, i, op)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	devOps := ctr.Ops()
	if devOps < 10 {
		t.Fatalf("suspiciously few checkpoint device ops (%d)", devOps)
	}

	for k := int64(0); k < devOps; k++ {
		dir := t.TempDir()
		wals := healthyWALs(k)
		cfg := crashConfig(cuts, wals)
		base := cfg.PerShard
		cfg.PerShard = func(sh int, dopt *segdb.DurableOptions) {
			base(sh, dopt)
			if sh == victim {
				dopt.CheckpointDevice = func(dev pager.Device) pager.Device {
					fd := faultdev.New(dev, k)
					fd.CrashAt(k)
					return fd
				}
			}
		}
		s, err := Create(dir, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			applyOp(t, s, i, op)
		}

		// Shard 2 commits while the victim's rebuild runs and dies.
		writes := make(chan error, 1)
		go func() {
			for _, e := range extra {
				if _, err := s.Insert(e); err != nil {
					writes <- err
					return
				}
			}
			writes <- nil
		}()
		if err := s.Compact(); err == nil {
			t.Fatalf("crash at checkpoint device op %d: Compact reported success", k)
		}
		if err := <-writes; err != nil {
			t.Fatalf("crash at checkpoint device op %d: concurrent commit on healthy shard failed: %v", k, err)
		}
		s.Close()

		s2, err := Open(dir, crashConfig(cuts, rebootWALs(k, wals)))
		if err != nil {
			t.Fatalf("crash at checkpoint device op %d: recovery open failed: %v", k, err)
		}
		got, err := s2.Collect()
		if err != nil {
			t.Fatalf("crash at checkpoint device op %d: collect: %v", k, err)
		}
		if !sameIDSet(got, want) {
			t.Fatalf("crash at checkpoint device op %d: recovered %d segments, want %d",
				k, len(got), len(want))
		}
		s2.Close()
	}
}

// TestShardAutoCompactDifferential runs the identical workload on a
// K=4 store with the governor polling the per-slab CompactUnits and on
// one without it, and demands identical answers to the full query
// battery — per-slab auto-compaction staggered under the worker bound
// must be invisible to reads — while every governed slab's WAL stays
// bounded by the threshold instead of the workload.
func TestShardAutoCompactDifferential(t *testing.T) {
	const k = 4
	initial, ops := differentialWorkload(4242)
	cuts, err := ChooseCuts(initial, k)
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 24

	run := func(t *testing.T, governed bool) (*Store, int) {
		dir := t.TempDir()
		cfg := Config{
			Shards:  k,
			Cuts:    cuts,
			Durable: segdb.DurableOptions{Build: segdb.Options{B: 16}},
		}
		s, err := Create(dir, cfg, initial)
		if err != nil {
			t.Fatal(err)
		}
		var g *segdb.Governor
		if governed {
			units := s.CompactUnits()
			if len(units) != k {
				t.Fatalf("CompactUnits returned %d units for %d shards", len(units), k)
			}
			g = segdb.NewGovernor(units, segdb.GovernorConfig{
				Records:     threshold,
				MinInterval: time.Nanosecond,
				Parallel:    s.Workers(),
			})
		}
		fired := 0
		for i, op := range ops {
			applyOp(t, s, i, op)
			if g != nil && i%16 == 15 {
				fired += g.Poll()
			}
		}
		return s, fired
	}

	plain, _ := run(t, false)
	defer plain.Close()
	governed, fired := run(t, true)
	defer governed.Close()
	if fired == 0 {
		t.Fatalf("governor never fired over %d ops with threshold %d", len(ops), threshold)
	}

	// Differential: every query answers identically with and without
	// background compaction, across slab boundaries included.
	segs, err := plain.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range batteryQueries(cuts, segs, 4242) {
		if !sameIDSet(collectStore(t, plain, q), collectStore(t, governed, q)) {
			t.Fatalf("query %+v diverged between governed and ungoverned stores", q)
		}
	}

	// Bounded logs: each governed slab's replay cost is capped by the
	// threshold plus one inter-poll burst of writes.
	bound := int64(threshold) + 16
	for i, u := range governed.CompactUnits() {
		records, _, _ := u.WALStats()
		if records > bound {
			t.Fatalf("governed shard %d holds %d WAL records, want <= %d", i, records, bound)
		}
	}
	var total int64
	for _, u := range plain.CompactUnits() {
		records, _, _ := u.WALStats()
		total += records
	}
	if total != int64(len(ops)) {
		t.Fatalf("ungoverned WALs hold %d records, want the full %d-op workload", total, len(ops))
	}
}

// TestShardCrashMatrixCompactCarry is the sharded entry for a compaction
// with writers beside it, on a K = 4 store: while slab 1's live pages
// are being copied off its update lock, a tap on its checkpoint device
// commits slab-1 writes through the Store, so the publish has changed
// pages to write under the lock. The slab is killed at every
// checkpoint-device operation and at every operation of its WAL from the
// mark to the rotation. The rebooted store must open without ErrPartial and hold
// every other slab's writes plus exactly slab 1's acknowledged prefix,
// each once.
func TestShardCrashMatrixCompactCarry(t *testing.T) {
	const k4 = 4
	const during = 20 // slab-1 ops committed from inside the copy
	segs := workload.Grid(rand.New(rand.NewSource(901)), 10, 8, 0.9, 0.2)
	cuts, err := ChooseCuts(segs, k4)
	if err != nil {
		t.Fatal(err)
	}
	var ops []shardOp
	for i, s := range segs {
		ops = append(ops, shardOp{seg: s})
		if i%4 == 3 {
			ops = append(ops, shardOp{del: true, seg: segs[i-1]})
		}
	}
	owners := make([]int, len(ops))
	var mine []int // indexes of the victim's ops
	for i, op := range ops {
		owners[i] = slabOf(cuts, op.seg.MinX())
		if owners[i] == victim {
			mine = append(mine, i)
		}
	}
	if len(mine) < during+8 {
		t.Fatalf("workload routes only %d ops to slab %d", len(mine), victim)
	}
	carried := mine[len(mine)-during:]
	inCarry := make(map[int]bool, len(carried))
	for _, i := range carried {
		inCarry[i] = true
	}

	type life struct {
		acked  int // victim ops acknowledged, a prefix of mine
		fired  int
		delta  int // page writes of the publish
		walAt  int64
		walOps int64
		dev    *faultdev.Device
		err    error
		wals   []*wal.FaultFile
	}
	config := func(wals []*wal.FaultFile, dev func(pager.Device) pager.Device) Config {
		return Config{
			Shards:  k4,
			Cuts:    cuts,
			Durable: segdb.DurableOptions{Build: segdb.Options{B: 16}},
			PerShard: func(k int, dopt *segdb.DurableOptions) {
				dopt.WALFile = wals[k]
				if k == victim {
					dopt.CheckpointDevice = dev
				}
			},
		}
	}
	// Every life starts from one template: the store with everything but
	// the carried ops applied, as its files plus its WAL images.
	tmplDir := t.TempDir()
	tmplWALs := make([]*wal.FaultFile, k4)
	for i := range tmplWALs {
		tmplWALs[i] = wal.NewFaultFile(0)
	}
	tmpl, err := Create(tmplDir, config(tmplWALs, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if !inCarry[i] {
			applyOp(t, tmpl, i, op)
		}
	}
	if err := tmpl.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(tmplDir)
	if err != nil {
		t.Fatal(err)
	}

	run := func(dir string, seed, devCrash, walCrash int64) life {
		t.Helper()
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(tmplDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l := life{wals: rebootWALs(seed, tmplWALs), acked: len(mine) - len(carried)}
		var s *Store
		failed := false
		commit := func(n int) {
			l.fired++
			for i := 0; i < n && !failed; i++ {
				op := ops[mine[l.acked]]
				var err error
				if op.del {
					_, _, err = s.Delete(op.seg)
				} else {
					_, err = s.Insert(op.seg)
				}
				if err != nil {
					failed = true
					return
				}
				l.acked++
			}
		}
		s, err := Open(dir, config(l.wals, func(dev pager.Device) pager.Device {
			l.dev = faultdev.New(dev, devCrash)
			if devCrash >= 0 {
				l.dev.TornWrites(0.5)
				l.dev.CrashAt(devCrash)
			}
			return &faultdev.Tap{Device: l.dev, BeforeWrite: func(write, syncs int) {
				if syncs > 0 {
					l.delta++
				} else if write == 1 {
					commit(during)
				}
			}}
		}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		l.walAt = l.wals[victim].Ops()
		if walCrash >= 0 {
			l.wals[victim].TornWrites(0.7)
			l.wals[victim].CrashAt(l.walAt + walCrash)
		}
		// Only the victim compacts: the other slabs' rotations are the
		// business of TestShardCrashMatrixCompactConcurrent.
		l.err = s.Shard(victim).Compact()
		l.walOps = l.wals[victim].Ops()
		return l
	}
	recovered := func(tag, dir string, l life) {
		t.Helper()
		s, err := Open(dir, config(rebootWALs(1, l.wals), nil))
		if err != nil {
			t.Fatalf("%s: recovery open: %v", tag, err)
		}
		defer s.Close()
		got, err := s.Collect()
		if err != nil {
			t.Fatalf("%s: collect: %v", tag, err)
		}
		ids := sortedIDs(got)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				t.Fatalf("%s: segment %d recovered twice", tag, ids[i])
			}
		}
		if want := applyShardOps(ops, owners, l.acked); !sameIDSet(got, want) {
			t.Fatalf("%s: recovered %d segments, want %d (slab %d acknowledged %d of %d ops)",
				tag, len(got), len(want), victim, l.acked, len(mine))
		}
		if err := Verify(dir); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}

	twinDir := t.TempDir()
	twin := run(twinDir, 0, -1, -1)
	if twin.err != nil {
		t.Fatal(twin.err)
	}
	if twin.fired != 1 || twin.acked != len(mine) || twin.delta < 2 {
		t.Fatalf("twin: %d tap commits, %d of %d slab ops acknowledged, %d pages published; the publish would write no changed page",
			twin.fired, twin.acked, len(mine), twin.delta)
	}
	recovered("twin", twinDir, twin)
	devOps, walOps := twin.dev.Ops(), twin.walOps-twin.walAt
	t.Logf("killing slab %d at each of %d checkpoint-device and %d WAL operations", victim, devOps, walOps)
	if devOps < 10 || walOps < 2*during {
		t.Fatalf("suspiciously few operations to kill (device %d, WAL %d)", devOps, walOps)
	}

	for k := int64(0); k < devOps; k++ {
		dir := t.TempDir()
		l := run(dir, k, k, -1)
		if !errors.Is(l.err, faultdev.ErrCrashed) {
			t.Fatalf("crash at checkpoint device op %d: Compact returned %v, want ErrCrashed", k, l.err)
		}
		recovered("crash at checkpoint device op", dir, l)
	}
	for k := int64(0); k < walOps; k++ {
		dir := t.TempDir()
		l := run(dir, k, -1, k)
		if l.err == nil {
			t.Fatalf("crash at WAL op %d of the compaction: Compact reported success", k)
		}
		recovered("crash at WAL op", dir, l)
	}
}
