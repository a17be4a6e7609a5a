package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"segdb"
	"segdb/internal/pager"
	"segdb/internal/server"
	"segdb/internal/wal"
)

// This file measures single layers from outside: every layer is reached
// through its public functions and the interfaces the program already
// lets a caller substitute (pager.Device, wal.File through
// DurableOptions.WALFile and LiveDevice, server.Index, server.Updater,
// http.Handler). The wrappers record spans when given a recorder and
// are inert with a nil one.

// spanDevice sits between a raw device and whatever reads it.
type spanDevice struct {
	pager.Device
	rec *recorder
}

func (d spanDevice) ReadPage(idx uint32, p []byte) error {
	i := d.rec.begin(lDevice)
	err := d.Device.ReadPage(idx, p)
	d.rec.end(i)
	return err
}

func (d spanDevice) WritePage(idx uint32, p []byte) error {
	i := d.rec.begin(lDevice)
	err := d.Device.WritePage(idx, p)
	d.rec.end(i)
	return err
}

// spanIndex wraps the core.Index handed to SynchronizedOn.
type spanIndex struct {
	segdb.Index
	rec *recorder
}

func (x spanIndex) Query(q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	i := x.rec.begin(lIndex)
	st, err := x.Index.Query(q, emit)
	x.rec.end(i)
	return st, err
}

// spanEngine wraps the server.Index the handlers call.
type spanEngine struct {
	server.Index
	rec *recorder
}

func (e spanEngine) QueryContext(ctx context.Context, q segdb.Query, emit func(segdb.Segment)) (segdb.QueryStats, error) {
	i := e.rec.begin(lEngine)
	st, err := e.Index.QueryContext(ctx, q, emit)
	e.rec.end(i)
	return st, err
}

func (e spanEngine) QueryBatchContext(ctx context.Context, qs []segdb.Query, par int) []segdb.BatchResult {
	i := e.rec.begin(lEngine)
	out := e.Index.QueryBatchContext(ctx, qs, par)
	e.rec.end(i)
	return out
}

// spanUpdater wraps the server.Updater of a read-write stack.
type spanUpdater struct {
	server.Updater
	rec *recorder
}

func (u spanUpdater) Insert(seg segdb.Segment) (segdb.UpdateStats, error) {
	i := u.rec.begin(lUpdater)
	st, err := u.Updater.Insert(seg)
	u.rec.end(i)
	return st, err
}

func (u spanUpdater) Delete(seg segdb.Segment) (bool, segdb.UpdateStats, error) {
	i := u.rec.begin(lUpdater)
	found, st, err := u.Updater.Delete(seg)
	u.rec.end(i)
	return found, st, err
}

// walFile is the wal.File under a DurableIndex: a real file, so an fsync
// costs what it costs here, timed and counted; and beside it a shadow
// that keeps only the bytes a completed Sync covered, which is the disk
// a crash would leave (killing a process leaves the operating system's
// cache intact, so the shadow is what discards unflushed writes).
type walFile struct {
	*os.File
	shadow *wal.FaultFile
	rec    *recorder

	writes, writeNs, bytes atomic.Int64
	syncs, syncNs          atomic.Int64
}

func (f *walFile) WriteAt(p []byte, off int64) (int, error) {
	i := f.rec.begin(lWALWrite)
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.writeNs.Add(int64(time.Since(t0)))
	f.rec.end(i)
	f.writes.Add(1)
	f.bytes.Add(int64(n))
	if err == nil {
		_, err = f.shadow.WriteAt(p, off)
	}
	return n, err
}

func (f *walFile) Sync() error {
	i := f.rec.begin(lWALSync)
	t0 := time.Now()
	err := f.File.Sync()
	f.syncNs.Add(int64(time.Since(t0)))
	f.rec.end(i)
	f.syncs.Add(1)
	if err == nil {
		err = f.shadow.Sync()
	}
	return err
}

func (f *walFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	return f.shadow.Truncate(size)
}

func openWALFile(path string, rec *recorder) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &walFile{File: f, shadow: wal.NewFaultFile(1), rec: rec}, nil
}

// hitPoolPages is a pool large enough to hold any index the workloads
// build, for probes that measure the pool-hit path alone.
const hitPoolPages = 1 << 16

// openStore opens the checksummed index file at path as OpenIndexFile
// does, with wrap placed between the file and the checksum layer.
func openStore(path string, poolPages int, wrap func(pager.Device) pager.Device) (*segdb.Store, segdb.Index, error) {
	_, pageSize, err := segdb.ProbeFile(path)
	if err != nil {
		return nil, nil, err
	}
	fdev, err := pager.OpenFileDevice(path, pager.PhysicalPageSize(pageSize))
	if err != nil {
		return nil, nil, err
	}
	st, err := pager.Open(pager.NewChecksumDevice(wrap(fdev), pageSize), pageSize, poolPages)
	if err != nil {
		fdev.Close()
		return nil, nil, err
	}
	ix, err := segdb.Open(st)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, ix, nil
}

// stackSeq numbers the WAL files of read-write stacks.
var stackSeq atomic.Int32

// stack is the in-process copy of what segdbd serves, assembled with the
// wrappers above and listening on loopback.
type stack struct {
	addr    string
	handler http.Handler // server.Handler() itself, without the span middleware
	close   func()
}

// newStack assembles the served stack for sp over the files in dir.
// Batch sub-queries run on one worker (the daemon uses four) so that the
// spans of a request nest strictly and self times are exact.
func newStack(sp spec, dir string, rec *recorder) (*stack, error) {
	cfg := server.Config{BatchParallelism: 1}
	var (
		eng  server.Index
		st   *segdb.Store
		done func()
	)
	if sp.sol == 2 {
		store, ix, err := openStore(filepath.Join(dir, "sol2.db"), sp.cache,
			func(d pager.Device) pager.Device { return spanDevice{d, rec} })
		if err != nil {
			return nil, err
		}
		st, eng = store, spanEngine{segdb.SynchronizedOn(spanIndex{ix, rec}, store), rec}
		done = func() { store.Close() }
	} else {
		// The live index is built inside OpenDurableIndex, so no wrapper
		// can be placed between its SyncIndex and the Solution-1 index:
		// here an engine span covers both.
		wf, err := openWALFile(filepath.Join(dir, fmt.Sprintf("stack-%d.wal", stackSeq.Add(1))), rec)
		if err != nil {
			return nil, err
		}
		dix, err := segdb.OpenDurableIndex(filepath.Join(dir, "sol1.db"), "", segdb.DurableOptions{
			CachePages: sp.cache,
			WALFile:    wf,
			LiveDevice: func(d pager.Device) pager.Device { return spanDevice{d, rec} },
		})
		if err != nil {
			wf.Close()
			return nil, err
		}
		st, eng = dix.Store(), spanEngine{dix.Index(), rec}
		cfg.Updater = spanUpdater{dix, rec}
		done = func() { dix.Close(); os.Remove(wf.Name()) }
	}
	inner := server.New(eng, st, cfg).Handler()
	s := &stack{handler: inner}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		done()
		return nil, err
	}
	s.addr = l.Addr().String()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := rec.begin(lHandler)
		inner.ServeHTTP(w, r)
		rec.end(i)
	})}
	go srv.Serve(l)
	s.close = func() { srv.Close(); done() }
	return s, nil
}

// replay sends reqs one at a time through the stack, twice: the first
// pass records spans for the even-numbered requests and the second for
// the odd-numbered ones. Every request is thus timed once with the
// wrappers recording and once with them off, under the same conditions a
// request apart, which is what lets the overhead of recording be read off
// a machine whose speed drifts. Each pass has a stack of its own, opened
// on the same files and an empty log, so an insert or a delete meets the
// same index both times. Query requests are sent once untimed first, so
// the timed requests see the pool the daemon sees after warm-up.
func replay(sp spec, dir string, reqs []request, rec *recorder) (on, off []time.Duration, err error) {
	on, off = make([]time.Duration, len(reqs)), make([]time.Duration, len(reqs))
	for pass := 0; pass < 2; pass++ {
		if err := replayPass(sp, dir, reqs, rec, pass, on, off); err != nil {
			return nil, nil, err
		}
	}
	return on, off, nil
}

func replayPass(sp spec, dir string, reqs []request, rec *recorder, pass int, on, off []time.Duration) error {
	rec.off.Store(true)
	s, err := newStack(sp, dir, rec)
	if err != nil {
		return err
	}
	defer s.close()
	conn := &wireConn{addr: s.addr}
	defer conn.close()
	for i := range reqs {
		if reqs[i].kind == kQuery {
			if _, _, err := conn.do(reqs[i].wire, false); err != nil {
				return err
			}
		}
	}
	for i := range reqs {
		record := i%2 == pass
		rec.off.Store(!record)
		rec.req.Store(int32(i))
		id := rec.begin(lClient)
		t0 := time.Now()
		status, _, err := conn.do(reqs[i].wire, false)
		d := time.Since(t0)
		rec.end(id)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("replay request %d: HTTP %d, %v", i, status, err)
		}
		if record {
			on[i] = d
		} else {
			off[i] = d
		}
	}
	return nil
}

// discardWriter is the cheapest http.ResponseWriter: the handler's own
// allocations are what handlerAllocs counts.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// mallocs runs f and returns the heap allocations it made.
func mallocs(f func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// handlerAllocs is the heap allocations of one query request inside
// server.Handler(), transport excluded: requests are built beforehand
// and the response is discarded.
func handlerAllocs(sp spec, dir string, reqs []request) (float64, error) {
	s, err := newStack(sp, dir, nil)
	if err != nil {
		return 0, err
	}
	defer s.close()
	var hreqs []*http.Request
	for i := range reqs {
		if reqs[i].kind != kQuery {
			continue
		}
		hr, err := http.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(reqs[i].body()))
		if err != nil {
			return 0, err
		}
		hreqs = append(hreqs, hr)
	}
	w := &discardWriter{h: make(http.Header)}
	n := mallocs(func() {
		for _, hr := range hreqs {
			s.handler.ServeHTTP(w, hr)
		}
	})
	return n / float64(len(hreqs)), nil
}
