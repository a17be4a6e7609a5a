package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"segdb"
	"segdb/internal/pager"
	"segdb/internal/shard"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// ledger is the traced run: it probes each layer on the workload's
// dataset with queries of the workloads' mix, then replays the head of
// the workload's request stream through the in-process stack for the
// span tree.
type ledger struct {
	sp      spec
	seed    int64
	dir     string
	segs    []segdb.Segment
	box     workload.Rect // of segs
	queries []segdb.Query // what the probes run: a function of the dataset alone
	reqs    []request     // what the replay sends: the head of lane 0's stream
	m       map[string]float64
	spans   []span
}

// probed remembers what the probes measured on a dataset. They read the
// data and nothing of the workload, and three workloads serve the same
// data, so a run of all four workloads probes two datasets, not four. A
// driver run is one workload and probes once.
var probed = map[dataset]map[string]float64{}

type dataset struct {
	segments int
	seed     int64
}

func (lg *ledger) set(name string, v float64) { lg.m[name] = v }

const (
	replayRequests = 2000 // at most this many requests are replayed …
	replayQueries  = 8000 // … holding at most this many queries (a batch counts all of its own)
	probeQueries   = 4000 // queries a direct probe of one layer runs
	probePoolPages = 4096 // pool of the stores a probe opens as a daemon would: -cache of three workloads of four
)

func newLedger(sp spec, seed int64, dir string, segs []segdb.Segment, st *stream) *ledger {
	lg := &ledger{sp: sp, seed: seed, dir: dir, segs: segs, box: st.box, m: make(map[string]float64)}
	replayed := 0
	for _, r := range st.lanes[0] {
		if len(lg.reqs) == replayRequests || replayed+len(r.queries) > replayQueries {
			break
		}
		lg.reqs = append(lg.reqs, r)
		replayed += len(r.queries)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265)) // not a lane's sequence
	for len(lg.queries) < probeQueries {
		lg.queries = append(lg.queries, st.randQuery(rng))
	}
	return lg
}

func (lg *ledger) run() error {
	key := dataset{lg.sp.segments, lg.seed}
	steps := []func() error{lg.probeBuild} // always: the replay reads the files it builds
	if known := probed[key]; known != nil {
		for name, v := range known {
			lg.m[name] = v
		}
	} else {
		steps = append(steps, lg.probeGeom, lg.probePager, lg.probeSol2, lg.probeSol1, lg.probeDurable, lg.probeShard)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	if probed[key] == nil {
		probed[key] = maps.Clone(lg.m)
	}
	return lg.replay()
}

func (lg *ledger) path(name string) string { return filepath.Join(lg.dir, name) }

// probeBuild builds both index files the other probes read.
func (lg *ledger) probeBuild() error {
	for sol, file := range map[int]string{1: "sol1.db", 2: "sol2.db"} {
		t0 := time.Now()
		if err := segdb.BuildIndexFile(lg.path(file), segdb.Options{B: blockCapacity}, sol, lg.segs); err != nil {
			return err
		}
		lg.set(fmt.Sprintf("build.sol%d_s", sol), time.Since(t0).Seconds())
	}
	return nil
}

// probeGeom times the geometric predicate every structure bottoms out in.
func (lg *ledger) probeGeom() error {
	qs := lg.queries[:min(32, len(lg.queries))]
	var hits int
	d := timeMedian(3, func() {
		for _, q := range qs {
			for i := range lg.segs {
				if q.Hits(lg.segs[i]) {
					hits++
				}
			}
		}
	})
	runtime.KeepAlive(hits)
	lg.set("geom.hits_ns", float64(d)/float64(len(qs)*len(lg.segs)))
	return nil
}

// idDevice records which pages are read.
type idDevice struct {
	pager.Device
	ids *[]pager.PageID
}

func (d idDevice) ReadPage(idx uint32, p []byte) error {
	*d.ids = append(*d.ids, pager.PageID(idx+1))
	return d.Device.ReadPage(idx, p)
}

// clockDevice accumulates the time spent in raw page reads.
type clockDevice struct {
	pager.Device
	ns *int64
}

func (d clockDevice) ReadPage(idx uint32, p []byte) error {
	t0 := time.Now()
	err := d.Device.ReadPage(idx, p)
	*d.ns += int64(time.Since(t0))
	return err
}

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

func runQueries(ix segdb.Index, qs []segdb.Query) error {
	for _, q := range qs {
		if _, err := ix.Query(q, func(segdb.Segment) {}); err != nil {
			return err
		}
	}
	return nil
}

// probePager captures the page-ID trace of the queries with a pool of
// zero pages (every access reaches the device, in order), then replays
// Store.Read over that trace against a warm pool and against no pool.
func (lg *ledger) probePager() error {
	var ids []pager.PageID
	st, ix, err := openStore(lg.path("sol2.db"), 0, func(d pager.Device) pager.Device { return idDevice{d, &ids} })
	if err != nil {
		return err
	}
	ids = ids[:0] // drop the catalog read of Open
	err = runQueries(ix, lg.queries)
	st.Close()
	if err != nil {
		return err
	}
	lg.set("pager.accesses_per_query", float64(len(ids))/float64(len(lg.queries)))

	readAll := func(st *segdb.Store) {
		for _, id := range ids {
			if _, err := st.Read(id); err != nil {
				panic(err) // the same reads just succeeded
			}
		}
	}
	warm, _, err := openStore(lg.path("sol2.db"), hitPoolPages, func(d pager.Device) pager.Device { return d })
	if err != nil {
		return err
	}
	readAll(warm)
	lg.set("pager.read_hit_ns", float64(timeMedian(5, func() { readAll(warm) }))/float64(len(ids)))
	lg.set("pager.read_hit_allocs", mallocs(func() { readAll(warm) })/float64(len(ids)))
	warm.Close()

	var devNs int64
	cold, _, err := openStore(lg.path("sol2.db"), 0, func(d pager.Device) pager.Device { return clockDevice{d, &devNs} })
	if err != nil {
		return err
	}
	readAll(cold)
	devNs = 0
	lg.set("pager.read_miss_ns", float64(timeMedian(5, func() { readAll(cold) }))/float64(len(ids)))
	lg.set("pager.device_read_ns", float64(devNs)/float64(5*len(ids)))
	cold.Close()
	return nil
}

// probeIndex times the queries straight on a core.Index whose pages are
// all in the pool.
func (lg *ledger) probeIndex(prefix string, ix segdb.Index) error {
	if err := runQueries(ix, lg.queries); err != nil {
		return err
	}
	n := float64(len(lg.queries))
	lg.set(prefix+".query_ns", float64(timeMedian(5, func() { runQueries(ix, lg.queries) }))/n)
	lg.set(prefix+".query_allocs", mallocs(func() { runQueries(ix, lg.queries) })/n)
	return nil
}

func (lg *ledger) probeSol2() error {
	var open []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st, _, err := segdb.OpenIndexFile(lg.path("sol2.db"), 0, probePoolPages)
		if err != nil {
			return err
		}
		open = append(open, float64(time.Since(t0))/1e6)
		st.Close()
	}
	lg.set("catalog.open_ms", median(open))

	st, ix, err := segdb.OpenIndexFile(lg.path("sol2.db"), 0, hitPoolPages)
	if err != nil {
		return err
	}
	defer st.Close()
	if err := lg.probeIndex("sol2", ix); err != nil {
		return err
	}
	// What a Solution-2 query costs beyond fetching its pages from the pool.
	lg.set("sol2.query_self_ns", lg.m["sol2.query_ns"]-lg.m["pager.accesses_per_query"]*lg.m["pager.read_hit_ns"])
	return nil
}

// probeSegment is the i-th segment the probes insert: horizontal, on its
// own y above the data, like the workload's own inserts.
func (lg *ledger) probeSegment(band, i int) segdb.Segment {
	box := lg.box
	y := box.MaxY + 1000 + float64(band)*1e6 + float64(i)*0.01
	return segdb.NewSegment(uint64(100+band)<<32|uint64(i+1), box.MinX, y, box.MinX+(box.MaxX-box.MinX)/10, y)
}

// probeSol1 measures the live tier's structure the way the daemon holds
// it: Solution 1 built in memory.
func (lg *ledger) probeSol1() error {
	st := segdb.NewMemStore(blockCapacity, hitPoolPages)
	defer st.Close()
	ix, err := segdb.BuildSolution1(st, segdb.Options{B: blockCapacity}, lg.segs)
	if err != nil {
		return err
	}
	io0 := st.Stats()
	if err := lg.probeIndex("sol1", ix); err != nil {
		return err
	}
	io := st.Stats().Sub(io0)
	// probeIndex runs the queries seven times over.
	lg.set("sol1.accesses_per_query", float64(io.Reads+io.CacheHits)/float64(7*len(lg.queries)))
	sx := segdb.SynchronizedOn(ix, st)
	const inserts = 256
	var ns, pages []float64
	for i := 0; i < inserts; i++ {
		t0 := time.Now()
		us, err := sx.InsertStats(lg.probeSegment(0, i))
		if err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t0)))
		pages = append(pages, float64(us.PagesWritten))
	}
	lg.set("sol1.insert_ns", median(ns))
	lg.set("sol1.pages_written_per_insert", mean(pages))
	return nil
}

// probeDurable drives a DurableIndex directly, one writer: open, a run of
// acknowledged inserts and deletes over a real fsynced file, the crash
// check, then a compaction with a writer beside it.
func (lg *ledger) probeDurable() error {
	ckpt := lg.path("durable.db")
	if err := copyFile(lg.path("sol1.db"), ckpt); err != nil {
		return err
	}
	wf, err := openWALFile(lg.path("durable.wal"), nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	dix, err := segdb.OpenDurableIndex(ckpt, "", segdb.DurableOptions{CachePages: probePoolPages, WALFile: wf})
	if err != nil {
		wf.Close()
		return err
	}
	defer dix.Close()
	lg.set("durable.open_s", time.Since(t0).Seconds())

	const inserts, deletes = 256, 128
	w0, wn0, b0, s0, sn0 := wf.writes.Load(), wf.writeNs.Load(), wf.bytes.Load(), wf.syncs.Load(), wf.syncNs.Load()
	var insNs []float64
	var total time.Duration
	for i := 0; i < inserts+deletes; i++ {
		t := time.Now()
		if i < inserts {
			_, err = dix.Insert(lg.probeSegment(1, i))
		} else {
			var found bool
			found, _, err = dix.Delete(lg.probeSegment(1, i-inserts))
			if err == nil && !found {
				err = fmt.Errorf("probe delete %d: segment not found", i-inserts)
			}
		}
		if err != nil {
			return err
		}
		d := time.Since(t)
		total += d
		if i < inserts {
			insNs = append(insNs, float64(d))
		}
	}
	const writes = inserts + deletes
	fileWrites := float64(wf.writes.Load() - w0)
	fileSyncs := float64(wf.syncs.Load() - s0)
	inWrite, inSync := float64(wf.writeNs.Load()-wn0), float64(wf.syncNs.Load()-sn0)
	lg.set("durable.insert_ns", median(insNs))
	lg.set("wal.append_ns", inWrite/fileWrites)
	lg.set("wal.fsync_ns", inSync/fileSyncs)
	lg.set("wal.fsyncs_per_write", fileSyncs/writes)
	lg.set("wal.bytes_per_write", float64(wf.bytes.Load()-b0)/writes)
	// An acknowledged write's time outside the log file: the live-index
	// apply and the log's own bookkeeping.
	lg.set("durable.apply_self_ns", (float64(total)-inWrite-inSync)/writes)

	// The crash check: reopen on the checkpoint plus only those log bytes
	// a completed Sync covered.
	crashed := wal.NewFaultFileFrom(1, wf.shadow.DurableImage())
	re, err := segdb.OpenDurableIndex(ckpt, "", segdb.DurableOptions{WALFile: crashed})
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	got, err := re.Index().Collect()
	re.Close()
	if err != nil {
		return err
	}
	stored := make(map[uint64]bool, len(got))
	for _, s := range got {
		stored[s.ID] = true
	}
	survive := 1.0
	for i := 0; i < inserts; i++ {
		if id := lg.probeSegment(1, i).ID; stored[id] != (i >= deletes) {
			survive = 0
		}
	}
	lg.set("durable.acked_survive", survive)

	return lg.probeCompact(dix, ckpt)
}

// probeCompact runs one compaction with a writer beside it: updates wait
// for the whole checkpoint, and the longest wait is the stall a client
// would see.
func (lg *ledger) probeCompact(dix *segdb.DurableIndex, ckpt string) error {
	stop := make(chan struct{})
	stall := make(chan time.Duration)
	go func() {
		var worst time.Duration
		for i := 0; ; i++ {
			select {
			case <-stop:
				stall <- worst
				return
			default:
			}
			t := time.Now()
			if _, err := dix.Insert(lg.probeSegment(2, i)); err != nil {
				stall <- -1
				return
			}
			worst = max(worst, time.Since(t))
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the writer get going
	t0 := time.Now()
	err := dix.Compact()
	took := time.Since(t0)
	close(stop)
	worst := <-stall
	if err != nil {
		return err
	}
	if worst < 0 {
		return fmt.Errorf("writer beside the compaction failed")
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	lg.set("compact.run_s", took.Seconds())
	lg.set("compact.max_stall_ms", float64(worst)/1e6)
	lg.set("compact.bytes_rewritten", float64(fi.Size()))
	return nil
}

func copyFile(from, to string) error {
	raw, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, raw, 0o644)
}

// probeShard runs the queries through a four-slab shard.Store. No
// end-to-end workload is sharded yet (two cores); the row is a baseline
// for when one is. The K = 1 comparison is sol1.query_ns.
func (lg *ledger) probeShard() error {
	s, err := shard.Create(lg.path("shards"), shard.Config{
		Shards:  4,
		Durable: segdb.DurableOptions{Build: segdb.Options{B: blockCapacity}, CachePages: hitPoolPages / 4},
	}, lg.segs)
	if err != nil {
		return err
	}
	defer s.Close()
	ctx := context.Background()
	run := func() {
		for _, q := range lg.queries {
			if _, err := s.QueryContext(ctx, q, func(segdb.Segment) {}); err != nil {
				panic(err)
			}
		}
	}
	run()
	accesses := func() (n int64, spanners int) {
		for _, st := range s.ShardStatus() {
			n += st.IO.Reads + st.IO.CacheHits
			spanners += st.Spanners
		}
		return n, spanners
	}
	a0, spanners := accesses()
	d := timeMedian(5, run)
	a1, _ := accesses()
	n := float64(len(lg.queries))
	lg.set("shard.query_ns", float64(d)/n)
	lg.set("shard.accesses_per_query", float64(a1-a0)/(5*n))
	lg.set("shard.spanner_entries", float64(spanners))
	return nil
}

// replay sends the head of the stream through the in-process stack and
// reads the layer ledger off the recorded spans.
func (lg *ledger) replay() error {
	rec := newRecorder(1 << 20)
	on, off, err := replay(lg.sp, lg.dir, lg.reqs, rec)
	if err != nil {
		return err
	}
	if n := rec.dropped.Load(); n > 0 {
		return fmt.Errorf("span buffer too small: %d spans dropped", n)
	}
	lg.spans = rec.recorded()

	// The ledger is read off query requests, which every workload has; a
	// write request's spans are in the trace file.
	rows := layerLedger(lg.spans, len(lg.reqs))
	var perLayer [numLayers][]float64
	var rtOn, rtOff []float64
	for i, r := range lg.reqs {
		if r.kind != kQuery {
			continue
		}
		for l := range perLayer {
			perLayer[l] = append(perLayer[l], float64(rows[i][l]))
		}
		rtOn = append(rtOn, float64(on[i]))
		rtOff = append(rtOff, float64(off[i]))
	}
	// The ledger rows of a query request: transport, handler, and the
	// server.Index call with everything beneath it. Each request's rows add
	// up to its round trip exactly; the medians of the rows need not add up
	// to the median round trip, and ledger_sum_frac says how nearly they do.
	call, selfShare := make([]float64, len(rtOn)), make([]float64, len(rtOn))
	for i := range call {
		call[i] = perLayer[lEngine][i] + perLayer[lIndex][i] + perLayer[lDevice][i]
		selfShare[i] = perLayer[lEngine][i] / call[i]
	}
	transport, handler, engine := median(perLayer[lClient]), median(perLayer[lHandler]), median(call)
	lg.set("http.round_trip_ns", median(rtOn))
	lg.set("http.transport_ns", transport)
	lg.set("server.handler_self_ns", handler)
	lg.set("syncindex.call_ns", engine)
	if lg.sp.sol == 2 {
		// Lock, I/O window, cancel shim, batch loop. The read-write stack
		// has no seam between its SyncIndex and the Solution-1 index (see
		// newStack), so there the share cannot be measured.
		lg.set("syncindex.self_frac", median(selfShare))
	}
	lg.set("trace.ledger_sum_frac", (transport+handler+engine)/median(rtOn))
	lg.set("trace.overhead_frac", (median(rtOn)-median(rtOff))/median(rtOff))

	allocs, err := handlerAllocs(lg.sp, lg.dir, lg.reqs)
	if err != nil {
		return err
	}
	lg.set("server.handler_allocs", allocs)
	return nil
}
