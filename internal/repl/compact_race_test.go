package repl_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"segdb"
	"segdb/internal/faultdev"
	"segdb/internal/pager"
	"segdb/internal/repl"
	"segdb/internal/wal"
	"segdb/internal/workload"
)

// gatedWriter stalls the first armed body write halfway through: the
// test's handle on "a follower is mid-download" while the leader
// compacts underneath it.
type gatedWriter struct {
	http.ResponseWriter
	armed   *atomic.Bool
	once    *sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if g.armed.Load() && len(p) > 1 {
		half := len(p) / 2
		n, err := g.ResponseWriter.Write(p[:half])
		if err != nil {
			return n, err
		}
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
		m, err := g.ResponseWriter.Write(p[half:])
		return n + m, err
	}
	return g.ResponseWriter.Write(p)
}

// TestReplCompactDuringSnapshotStream races a leader compaction against
// a follower's bootstrap, with writers beside both. The follower asks
// for its snapshot while the compaction is in the middle of its
// checkpoint copy — the copy holds no lock, so the request is served
// at once, pairing the old checkpoint with the old epoch while writes
// keep being acknowledged — and the rotation then renames a fresh
// checkpoint over the path while half the old one is on the wire. The
// pinned-inode contract says the follower must still complete a
// CONSISTENT old-epoch snapshot (not a torn mix of two checkpoints),
// then discover its epoch is gone on the first tail fetch (410),
// re-snapshot, and converge on the leader's post-rotation state.
func TestReplCompactDuringSnapshotStream(t *testing.T) {
	dir := t.TempDir()
	// buildGate holds the leader's next compaction at the third page
	// write of its checkpoint copy.
	var buildGate atomic.Bool
	building, resume := make(chan struct{}), make(chan struct{})
	d, err := segdb.OpenDurableIndex(filepath.Join(dir, "leader.db"), filepath.Join(dir, "leader.wal"),
		segdb.DurableOptions{
			Build: segdb.Options{B: 16},
			CheckpointDevice: func(dev pager.Device) pager.Device {
				return &faultdev.Tap{Device: dev, BeforeWrite: func(write, _ int) {
					if write == 2 && buildGate.CompareAndSwap(true, false) {
						close(building)
						<-resume
					}
				}}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := repl.NewLeader(d)

	var armed atomic.Bool
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc(repl.SnapshotPath, func(w http.ResponseWriter, r *http.Request) {
		l.ServeSnapshot(&gatedWriter{
			ResponseWriter: w,
			armed:          &armed, once: &once, entered: entered, release: release,
		}, r)
	})
	mux.HandleFunc(repl.WALPath, l.ServeWAL)
	hs := httptest.NewServer(mux)
	defer hs.Close()

	ops := replOps(811, 8, 8)
	barrier := 2 * len(ops) / 3
	for _, op := range ops[:barrier] {
		applyOp(t, d, op)
	}
	// Checkpoint the first chunk so the snapshot body is a real,
	// non-empty checkpoint (epoch 1) — the raced rotation below replaces
	// it on disk while it streams.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	cfg := repl.Config{
		Leader:         hs.URL,
		DB:             filepath.Join(fdir, "replica.db"),
		WAL:            filepath.Join(fdir, "replica.wal"),
		ID:             "f-race",
		Durable:        segdb.DurableOptions{Build: segdb.Options{B: 16}},
		PollWait:       20 * time.Millisecond,
		CompactRecords: -1,
	}
	// Hold the next compaction mid-copy and commit beside it.
	buildGate.Store(true)
	compacted := make(chan error, 1)
	go func() { compacted <- d.Compact() }()
	<-building
	mid := barrier + (len(ops)-barrier)/2
	for _, op := range ops[barrier:mid] {
		applyOp(t, d, op)
	}

	// The follower bootstraps now: mid-copy, with writes in the log the
	// copy has not seen.
	armed.Store(true)
	type openResult struct {
		f   *repl.Follower
		err error
	}
	opened := make(chan openResult, 1)
	go func() {
		f, err := repl.Open(context.Background(), cfg)
		opened <- openResult{f, err}
	}()
	<-entered

	// The follower's download is stalled mid-body. Let the compaction
	// catch up and rotate the log away from under it, and keep
	// committing.
	close(resume)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[mid:] {
		applyOp(t, d, op)
	}
	armed.Store(false)
	close(release)

	res := <-opened
	if res.err != nil {
		t.Fatalf("bootstrap racing a compaction failed: %v", res.err)
	}
	f := res.f
	defer f.Close()
	// The snapshot it completed is the pre-rotation one — its headers
	// were written before the compact — so it pairs with epoch 1 and
	// holds exactly the first chunk, not a torn mix of two checkpoints.
	if st := f.Status(); st.Epoch != 1 {
		t.Fatalf("mid-stream bootstrap landed on epoch %d, want the old epoch 1", st.Epoch)
	}
	checkSet(t, f.Index(), oracle(ops, barrier), "old-epoch snapshot state")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	epoch, durable := d.ReplState()
	waitFor(t, 10*time.Second, "convergence after mid-stream rotation", atPosition(f, epoch, durable))
	checkSet(t, f.Index(), oracle(ops, len(ops)), "after mid-stream rotation")
	if st := f.Status(); st.Resnapshots < 1 {
		t.Fatalf("the stale epoch never forced a re-snapshot: %+v", st)
	}

	// Differential: leader and converged follower answer a query battery
	// identically.
	box := workload.BBox(workload.Grid(rand.New(rand.NewSource(811)), 8, 8, 0.9, 0.2))
	queries := workload.RandomVS(rand.New(rand.NewSource(813)), 24, box, 4)
	lead := segdb.QueryBatchContext(context.Background(), d.Index(), queries, 4)
	fol := segdb.QueryBatchContext(context.Background(), f.Index(), queries, 4)
	for i := range queries {
		if lead[i].Err != nil || fol[i].Err != nil {
			t.Fatalf("query %d: leader err %v, follower err %v", i, lead[i].Err, fol[i].Err)
		}
		ids := make(map[uint64]bool, len(lead[i].Hits))
		for _, s := range lead[i].Hits {
			ids[s.ID] = true
		}
		if len(lead[i].Hits) != len(fol[i].Hits) {
			t.Fatalf("query %d: leader %d hits, follower %d", i, len(lead[i].Hits), len(fol[i].Hits))
		}
		for _, s := range fol[i].Hits {
			if !ids[s.ID] {
				t.Fatalf("query %d: follower answered %d, leader did not", i, s.ID)
			}
		}
	}
}

// TestReplActiveTailLag pins the lag guard's input: a follower
// mid-stream on the current epoch counts with its byte lag, a
// caught-up one does not, and a rotation disqualifies stale-epoch
// followers entirely (they owe a re-snapshot either way, so deferring
// for them would only starve compaction).
func TestReplActiveTailLag(t *testing.T) {
	dir := t.TempDir()
	d, err := segdb.OpenDurableIndex(filepath.Join(dir, "leader.db"), filepath.Join(dir, "leader.wal"),
		segdb.DurableOptions{Build: segdb.Options{B: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := repl.NewLeader(d)
	mux := http.NewServeMux()
	mux.HandleFunc(repl.WALPath, l.ServeWAL)
	hs := httptest.NewServer(mux)
	defer hs.Close()

	ops := replOps(821, 6, 6)
	for _, op := range ops {
		applyOp(t, d, op)
	}
	_, durable := d.ReplState()
	if durable <= wal.HeaderSize {
		t.Fatalf("leader durable watermark %d never moved", durable)
	}

	if _, _, ok := l.ActiveTailLag(); ok {
		t.Fatal("lag reported with no followers at all")
	}

	fetch := func(epoch uint64, from int64, id string) int {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s%s?epoch=%d&from=%d&id=%s&wait_ms=0",
			hs.URL, repl.WALPath, epoch, from, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A tailing follower at the log's start: lag is the whole committed log.
	if code := fetch(0, wal.HeaderSize, "f-behind"); code != http.StatusOK {
		t.Fatalf("tail fetch returned %d", code)
	}
	lag, id, ok := l.ActiveTailLag()
	if !ok || id != "f-behind" || lag != durable-wal.HeaderSize {
		t.Fatalf("ActiveTailLag = (%d, %q, %v), want (%d, \"f-behind\", true)",
			lag, id, ok, durable-wal.HeaderSize)
	}

	// A second follower, closer to the tip: the guard cares about the
	// nearest-to-done follower, the smallest positive lag.
	if code := fetch(0, durable-wal.RecordSize, "f-close"); code != http.StatusOK {
		t.Fatalf("near-tip fetch returned %d", code)
	}
	if lag, id, ok = l.ActiveTailLag(); !ok || id != "f-close" || lag != wal.RecordSize {
		t.Fatalf("ActiveTailLag = (%d, %q, %v), want (%d, \"f-close\", true)",
			lag, id, ok, wal.RecordSize)
	}

	// Caught up (204): zero lag does not hold compaction back.
	if code := fetch(0, durable, "f-close"); code != http.StatusNoContent {
		t.Fatalf("caught-up fetch returned %d", code)
	}
	if lag, id, ok = l.ActiveTailLag(); !ok || id != "f-behind" {
		t.Fatalf("ActiveTailLag = (%d, %q, %v), want f-behind again", lag, id, ok)
	}

	// Rotation: every recorded follower is now on a dead epoch; none
	// qualifies, so a subsequent compaction is not deferred for them.
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if lag, id, ok = l.ActiveTailLag(); ok {
		t.Fatalf("ActiveTailLag = (%d, %q, true) across a rotation, want none", lag, id)
	}
}
