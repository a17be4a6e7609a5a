package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"segdb"
	"segdb/internal/server"
)

// warmup is the unmeasured lead-in of every run: long enough for the
// pool of the workloads whose index fits it to hold every page.
const warmup = 2 * time.Second

// Set-up is repeated, and so is restart in a traced run, and the figure
// reported is the median of the repetitions. A read-only daemon sets up
// in 50 ms and restarts in 5 ms, which a handful of repetitions cannot
// pin down on this machine, so each is repeated until repeatBudget is
// spent, at least minSetups / minRestarts times and at most maxRepeats.
const (
	minSetups    = 5
	minRestarts  = 11
	maxRepeats   = 101
	repeatBudget = time.Second
)

// repeatTimed calls f, which returns how long its timed part took, at
// least atLeast times and, if fill is set, until the calls have taken the
// budget between them.
func repeatTimed(atLeast int, fill bool, f func() (time.Duration, error)) ([]float64, error) {
	var took []float64
	var total time.Duration
	for len(took) < atLeast || (fill && total < repeatBudget && len(took) < maxRepeats) {
		d, err := f()
		if err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
		total += d
	}
	return took, nil
}

func daemonArgs(sp spec, db string) []string {
	args := []string{"-db", db, "-cache", strconv.Itoa(sp.cache)}
	if sp.sol == 1 {
		args = append(args, "-wal", db+".wal", "-group-commit-window", "0",
			"-auto-compact-records", strconv.Itoa(compactRecords), "-auto-compact-interval", "250ms")
	}
	return args
}

// edge is what is read off the daemon and this process at the two edges
// of the window: CPU seconds and /statsz always, the runtime's memory
// statistics in a traced run.
type edge struct {
	cpu, selfCPU float64
	snap         server.Snapshot
	mem          memStats
}

// run is one run of one workload, step by step.
type run struct {
	e      env
	sp     spec
	seed   int64
	window time.Duration
	traced bool
	res    *result

	dir, db, logPath string
	args             []string
	segs             []segdb.Segment
	st               *stream
	d                *daemon

	lanes   []*laneResult
	all     []sample // every measured request that succeeded
	ops     float64  // operations those requests carried
	e0, e1  edge
	elapsed time.Duration // window start to the last lane's finish
}

func runWorkload(e env, sp spec, seed int64, seconds int, traced bool) (*result, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.work, "run-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	tempDirs.Lock()
	tempDirs.dirs = append(tempDirs.dirs, dir)
	tempDirs.Unlock()
	defer os.RemoveAll(dir)

	r := &run{
		e: e, sp: sp, seed: seed, window: time.Duration(seconds) * time.Second, traced: traced,
		res: &result{sp: sp, seed: seed, correct: true, valid: true, e2e: make(map[string]float64), layer: make(map[string]float64)},
		dir: dir, db: filepath.Join(dir, "index.db"), logPath: filepath.Join(dir, "segdbd.log"),
	}
	r.args = daemonArgs(sp, r.db)
	defer func() { r.d.kill() }()

	steps := []func() error{r.setUp, r.measure, r.crashAndRestart, r.oracle}
	if traced {
		steps = append(steps, r.daemonLayers, r.ledger)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if name := undeclared(e.m.EndToEnd, r.res.e2e) + undeclared(e.m.PerLayer, r.res.layer); name != "" {
		return nil, fmt.Errorf("%s was measured and is not declared in BENCHMARK.json", name)
	}
	return r.res, nil
}

// fail records one wrong output of the program under test.
func (r *run) fail(note string) {
	r.res.failed++
	r.res.correct = false
	r.res.notes = append(r.res.notes, note)
}

// invalid marks a run in which the program may have been right but the
// measurement was not what the workload declares: the generator did not
// offer the load, or the window holds too few samples for its percentile.
func (r *run) invalid(note string) {
	r.res.valid = false
	r.res.notes = append(r.res.notes, "INVALID: "+note)
}

func (r *run) dataFiles() []string { return []string{r.db, r.db + ".wal", r.db + ".wal.epoch"} }

// setUp generates the data, builds the index file and starts the daemon,
// several times over; the last daemon stays.
func (r *run) setUp() error {
	took, err := repeatTimed(minSetups, true, func() (time.Duration, error) {
		if r.d != nil {
			r.d.kill()
			for _, f := range r.dataFiles() {
				os.Remove(f)
			}
		}
		t0 := time.Now()
		r.segs = genSegments(r.sp, r.seed)
		if err := segdb.BuildIndexFile(r.db, segdb.Options{B: blockCapacity}, r.sp.sol, r.segs); err != nil {
			return 0, err
		}
		d, err := startDaemon(r.e.segdbd, r.args, r.logPath, r.traced)
		if err != nil {
			return 0, err
		}
		r.d = d
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	r.res.e2e["setup_s"] = median(took)
	r.res.segments = len(r.segs)

	perLane := r.sp.streamSz
	if r.sp.rate > 0 {
		perLane = int(float64(r.sp.rate)/float64(r.sp.lanes)*(warmup+r.window).Seconds()) + 1
	}
	r.st = genStream(r.sp, r.seed, r.segs, perLane)
	return nil
}

func (r *run) readEdge() (g edge, err error) {
	if g.cpu, err = cpuSeconds(r.d.pid()); err != nil {
		return g, err
	}
	g.selfCPU, _ = cpuSeconds(os.Getpid())
	if g.snap, err = r.d.statsz(); err != nil {
		return g, err
	}
	if r.traced {
		g.mem, err = r.d.memStats()
	}
	return g, err
}

// measure is the warm-up and the measured window.
func (r *run) measure() error {
	var edgeErr error
	r.lanes, r.elapsed = runLoad(r.d.addr, r.st, r.sp, warmup, r.window, func(end bool) {
		g, err := r.readEdge()
		if err != nil {
			edgeErr = err
		}
		if end {
			r.e1 = g
		} else {
			r.e0 = g
		}
	})
	if edgeErr != nil {
		return fmt.Errorf("reading daemon counters: %w", edgeErr)
	}

	res := r.res
	var sent, late int
	var maxLag time.Duration
	for _, lr := range r.lanes {
		r.all = append(r.all, lr.samples...)
		res.attempted += lr.attempted
		res.failed += lr.failed + lr.shed
		sent += lr.sent
		late += lr.late
		maxLag = max(maxLag, lr.maxLag)
		if lr.firstErr != nil {
			res.notes = append(res.notes, "first failed request: "+lr.firstErr.Error())
		}
	}
	if len(r.all) == 0 {
		return fmt.Errorf("no request succeeded\n--- segdbd log tail ---\n%s", logTail(r.logPath, 20))
	}
	lat := make([]float64, len(r.all))
	for i, s := range r.all {
		r.ops += float64(s.ops)
		lat[i] = float64(s.lat) / 1e6
	}
	sort.Float64s(lat)
	res.e2e["throughput_ops_s"] = r.ops / r.elapsed.Seconds()
	res.e2e["request_p50_ms"] = percentile(lat, 50)
	tail, slices, fewest := slicedTail(r.all, r.window, r.sp.tailSlice, r.sp.tail)
	res.e2e["request_tail_ms"] = tail
	res.e2e["cpu_us_per_op"] = (r.e1.cpu - r.e0.cpu) * 1e6 / r.ops
	var err error
	if res.e2e["rss_peak_mb"], err = rssPeakMB(r.d.pid()); err != nil {
		return err
	}
	var disk int64
	for _, f := range r.dataFiles() {
		if fi, err := os.Stat(f); err == nil {
			disk += fi.Size()
		}
	}
	res.e2e["disk_bytes_per_segment"] = float64(disk) / float64(r.e1.snap.Segments)
	if r.sp.tailSlice == 0 {
		highest := highestPercentile(len(r.all))
		res.notes = append(res.notes, fmt.Sprintf("%d request samples: request_tail_ms is p%g; the highest percentile with ten samples beyond it is p%g",
			len(r.all), r.sp.tail, highest))
		if r.sp.tail > highest {
			r.invalid(fmt.Sprintf("too few samples for p%g", r.sp.tail))
		}
	} else {
		var compactions int64
		if c0, c1 := r.e0.snap.Compact, r.e1.snap.Compact; c0 != nil && c1 != nil {
			compactions = c1.Total - c0.Total
		}
		res.notes = append(res.notes, fmt.Sprintf("%d request samples: request_tail_ms is the median over %d slices of %v (at least %d samples each) of the slice's slowest request; %d compactions began in the window",
			len(r.all), slices, r.window/time.Duration(slices), fewest, compactions))
		if compactions < int64(slices) {
			r.invalid(fmt.Sprintf("%d compactions in %d slices: a slice without a stall makes the median of the slices meaningless", compactions, slices))
		}
	}
	if res.failed > 0 {
		res.correct = false
		res.notes = append(res.notes, fmt.Sprintf("FAILED: %d of %d requests failed, were shed or overran %v", res.failed, res.attempted, requestDeadline))
	}
	if sent > 0 {
		lateFrac := float64(late) / float64(sent)
		res.layer["loadgen.late_frac"] = lateFrac
		res.notes = append(res.notes, fmt.Sprintf("open loop, %d connections, %d requests/s: %d of %d idle wake-ups came more than %v late, worst %v",
			r.sp.lanes, r.sp.rate, late, sent, lateAfter, maxLag))
		if lateFrac > maxLateFrac {
			r.invalid(fmt.Sprintf("the generator was starved: late_frac %.4f is above %g, so the declared rate was not offered", lateFrac, maxLateFrac))
		}
	}
	return nil
}

// maxLateFrac is the share of open-loop sends that may leave late
// before the run no longer offered the load it declares.
const maxLateFrac = 0.01

// crashAndRestart is kill -9, start on the same files, healthy. Nothing is
// written between crashes, so every restart recovers the same state; a
// traced run repeats it for segdbd.restart_s. The last restart of a
// read-write daemon is asked for every acknowledged write.
func (r *run) crashAndRestart() error {
	atLeast := 1
	if r.traced {
		atLeast = minRestarts
	} else if !r.sp.writes {
		return nil // nothing to verify and nothing to report
	}
	took, err := repeatTimed(atLeast, r.traced, func() (time.Duration, error) {
		r.d.kill()
		t0 := time.Now()
		d, err := startDaemon(r.e.segdbd, r.args, r.logPath, false)
		if err != nil {
			return 0, fmt.Errorf("restart after kill -9: %w", err)
		}
		r.d = d
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	r.res.layer["segdbd.restart_s"] = median(took)
	if r.sp.writes {
		live, unknown, acked := expectedLive(r.lanes)
		checked, err := verifyDurable(r.d.addr, r.st, live, unknown)
		r.res.notes = append(r.res.notes, fmt.Sprintf("durability: %d acknowledged writes, %d live inserts read back after kill -9, %d unacknowledged",
			acked, checked, len(unknown)))
		if err != nil {
			r.fail("DURABILITY VIOLATION: " + err.Error())
		}
	}
	r.d.kill()
	return nil
}

// oracle checks the kept responses, off the timed path.
func (r *run) oracle() error {
	var keptAll []kept
	for _, lr := range r.lanes {
		keptAll = append(keptAll, lr.kept...)
	}
	checked, mismatched, first := checkKept(r.st, r.segs, keptAll)
	r.res.failed += mismatched
	r.res.notes = append(r.res.notes, fmt.Sprintf("oracle: %d answers checked against FilterHits, %d mismatched", checked, mismatched))
	if mismatched > 0 {
		r.res.correct = false
		r.res.notes = append(r.res.notes, "ORACLE MISMATCH: "+first)
	}
	return nil
}

// daemonLayers reads the per-layer metrics that come from the real
// daemon's window: client-side latency by request class, and the deltas
// of /statsz and of the runtime's memory statistics.
func (r *run) daemonLayers() error {
	var qLat, wLat []float64
	for _, s := range r.all {
		if s.kind == kQuery {
			qLat = append(qLat, float64(s.lat)/1e6)
		} else {
			wLat = append(wLat, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(qLat)
	sort.Float64s(wLat)
	L := r.res.layer
	L["client.query_p50_ms"] = percentile(qLat, 50)
	L["client.query_p99_ms"] = percentile(qLat, 99)
	if len(wLat) > 0 {
		L["client.write_p50_x"] = percentile(wLat, 50) / percentile(qLat, 50)
		L["client.write_p99_x"] = percentile(wLat, 99) / percentile(qLat, 50)
	}
	L["client.error_frac"] = float64(r.res.failed) / float64(r.res.attempted)
	L["loadgen.cpu_frac"] = (r.e1.selfCPU - r.e0.selfCPU) / r.elapsed.Seconds()
	L["segdbd.allocs_per_op"] = (r.e1.mem.mallocs - r.e0.mem.mallocs) / r.ops
	L["segdbd.gc_pause_ms"] = r.e1.mem.pauseSince(r.e0.mem) / 1e6
	L["segdbd.gc_cycles"] = r.e1.mem.numGC - r.e0.mem.numGC

	s0, s1 := r.e0.snap, r.e1.snap
	delta := func(name string) (requests, shed, ioReads int64) {
		a, b := s0.Endpoints[name], s1.Endpoints[name]
		return b.Requests - a.Requests, b.Shed - a.Shed, b.IOReads - a.IOReads
	}
	single, _, singleReads := delta("query")
	batches, _, batchReads := delta("batch")
	queries := float64(single) + float64(r.sp.batch)*float64(batches)
	var requests, shed int64
	for _, name := range []string{"query", "batch", "insert", "delete"} {
		n, s, _ := delta(name)
		requests += n
		shed += s
	}
	L["server.shed_frac"] = float64(shed) / float64(requests)
	L["server.pages_read_per_query"] = float64(singleReads+batchReads) / queries
	io := s1.Store.Total.Sub(s0.Store.Total)
	L["pager.hit_ratio"] = io.HitRatio()
	L["pager.misses_per_query"] = float64(io.Reads) / queries
	if s0.Compact != nil && s1.Compact != nil {
		L["compact.runs"] = float64(s1.Compact.Total - s0.Compact.Total)
	}
	return nil
}

// ledger runs the probes and the traced replay, in process. The window's
// samples and request streams are dropped first, so that this process's
// own garbage collector has little to do while it times.
func (r *run) ledger() error {
	lg := newLedger(r.sp, r.seed, filepath.Join(r.dir, "ledger"), r.segs, r.st)
	r.all, r.lanes, r.st = nil, nil, nil
	runtime.GC()
	if err := os.MkdirAll(lg.dir, 0o755); err != nil {
		return err
	}
	if err := lg.run(); err != nil {
		return fmt.Errorf("layer ledger: %w", err)
	}
	for k, v := range lg.m {
		r.res.layer[k] = v
	}
	if lg.m["durable.acked_survive"] != 1 {
		r.fail("DURABILITY VIOLATION: the probe's acknowledged writes did not survive the synced-bytes-only reopen")
	}
	if err := os.MkdirAll(r.e.out, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(r.e.out, r.sp.name+".trace.json")
	if err := writeTraceFile(tracePath, r.sp.name, r.seed, lg.spans); err != nil {
		return err
	}
	r.res.notes = append(r.res.notes, fmt.Sprintf("replayed %d requests, %d spans; head written to %s", len(lg.reqs), len(lg.spans), tracePath))
	return nil
}
