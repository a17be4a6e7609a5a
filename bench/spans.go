package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// layer names the boundary a span was recorded at. The benchmark records
// spans from its own wrappers around the calls into each layer; nothing
// inside the program under test is instrumented.
type layer uint8

const (
	lClient   layer = iota // client round trip: request written → response drained
	lHandler               // http.Handler middleware around server.Handler()
	lEngine                // server.Index call (SyncIndex, or DurableIndex.Index())
	lUpdater               // server.Updater call (DurableIndex.Insert/Delete)
	lIndex                 // core.Index call placed inside SynchronizedOn
	lDevice                // pager.Device page read or write
	lWALWrite              // wal.File WriteAt
	lWALSync               // wal.File Sync (the fsync)
	numLayers
)

var layerNames = [numLayers]string{
	"client", "handler", "engine", "updater", "index", "device", "wal_write", "wal_sync",
}

// span is one recorded interval: (name, start, end, parent, request id).
// Times are nanoseconds since the recorder's base; parent is the index of
// the span that was innermost-open when this one began, or -1.
type span struct {
	layer      layer
	req        int32
	parent     int32
	start, end int64
}

// recorder keeps spans in a preallocated buffer, so the wrappers that
// call it allocate nothing; a span that does not fit is counted and
// dropped. Nesting is tracked as one innermost-open span, which is exact
// because the traced replay drives one request at a time and runs batch
// sub-queries sequentially: at any instant a single chain
// client → handler → engine → index → device is open. The fields are
// atomics only because that chain crosses goroutines (client, server
// handler) whose ordering comes from the socket, not from Go.
type recorder struct {
	base    time.Time
	spans   []span
	next    atomic.Int32
	cur     atomic.Int32
	req     atomic.Int32
	dropped atomic.Int32
	off     atomic.Bool // set: begin records nothing, as with a nil recorder
}

func newRecorder(capacity int) *recorder {
	r := &recorder{base: time.Now(), spans: make([]span, capacity)}
	r.cur.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span under the innermost open one. A nil recorder is the
// wrappers-off configuration: begin returns -1 and end(-1) does nothing.
func (r *recorder) begin(l layer) int32 {
	if r == nil || r.off.Load() {
		return -1
	}
	i := r.next.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	s := &r.spans[i]
	s.layer, s.req, s.parent = l, r.req.Load(), r.cur.Load()
	r.cur.Store(i)
	s.start = r.now()
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.end = r.now()
	r.cur.Store(s.parent)
}

// recorded returns the completed spans in begin order.
func (r *recorder) recorded() []span {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another or overrun the parent; the covered part is the union of the
// children clipped to the parent. spans must be in begin order (children
// after parents, siblings by start), which is how a recorder stores them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // end of the covered prefix of each span
	for i, s := range spans {
		self[i] = s.end - s.start
		covered[i] = s.start
	}
	for _, s := range spans {
		p := s.parent
		if p < 0 {
			continue
		}
		lo, hi := s.start, s.end
		if lo < covered[p] {
			lo = covered[p]
		}
		if hi > spans[p].end {
			hi = spans[p].end
		}
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// layerLedger sums self time per (request, layer): row r holds request
// r's self time in each layer, so a row adds up to the request's root
// span exactly.
func layerLedger(spans []span, requests int) [][numLayers]int64 {
	rows := make([][numLayers]int64, requests)
	for i, self := range selfTimes(spans) {
		if r := int(spans[i].req); r >= 0 && r < requests {
			rows[r][spans[i].layer] += self
		}
	}
	return rows
}

// maxTraceFileSpans bounds the trace file: a read-cold replay records
// several hundred device spans per request, and the head of the stream
// shows the shape as well as all of it.
const maxTraceFileSpans = 20000

func writeTraceFile(path, workload string, seed int64, spans []span) error {
	if len(spans) > maxTraceFileSpans {
		spans = spans[:maxTraceFileSpans]
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"spans\":[\n", workload, seed)
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}%s\n",
			i, layerNames[s.layer], s.start, s.end, s.parent, s.req, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
