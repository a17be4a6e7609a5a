package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"segdb"
	"segdb/internal/server"
)

// requestDeadline is the client's limit on one request; anything slower
// counts as failed.
const requestDeadline = 5 * time.Second

// oracleEvery is the sampling period of the correctness oracle: one
// response in this many is kept and checked after the window.
const oracleEvery = 200

// lateAfter is how far past its due time an idle lane may wake before
// the generator counts the send as late. The sandbox's timers overshoot
// a sleep by up to 1.1 ms; beyond twice that the generator was starved.
const lateAfter = 2 * time.Millisecond

// wireConn is one client connection speaking HTTP/1.1 with pre-encoded
// requests. Responses are parsed by net/http's reader (it handles both
// Content-Length and chunked bodies) and drained without decoding.
type wireConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	keep bytes.Buffer
}

func (w *wireConn) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// do sends one request. With keep set the body is returned (valid until
// the next call); otherwise it is discarded.
func (w *wireConn) do(wire []byte, keep bool) (status int, body []byte, err error) {
	if w.c == nil {
		if w.c, err = net.DialTimeout("tcp", w.addr, requestDeadline); err != nil {
			return 0, nil, err
		}
		w.br = bufio.NewReaderSize(w.c, 64<<10)
	}
	defer func() {
		if err != nil {
			w.close() // a half-read response poisons the connection
		}
	}()
	w.c.SetDeadline(time.Now().Add(requestDeadline))
	if _, err = w.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		w.keep.Reset()
		_, err = w.keep.ReadFrom(resp.Body)
		return resp.StatusCode, w.keep.Bytes(), err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// sample is one measured request. at is when it was scheduled (sent, or
// due), in nanoseconds from the start of the measured window; lat is how
// long it took, in nanoseconds: from the send for a closed loop, from the
// due time for an open loop.
type sample struct {
	at   int64
	lat  int64
	kind reqKind
	ops  int32 // queries answered or writes acknowledged
}

// kept is one response retained for the oracle.
type kept struct {
	req  *request
	body []byte
}

// ack records the outcome of one write of the stream, warm-up included,
// because the durability check needs the whole history.
type ack struct {
	req   *request
	acked bool // 200: the write is durable (a delete also reports found)
}

type laneResult struct {
	samples   []sample
	attempted int // measured requests
	failed    int // transport errors, deadline overruns, non-200 other than shed
	shed      int // 429 / 503
	sent      int // open loop: measured sends, for late_frac
	late      int
	maxLag    time.Duration
	kept      []kept
	acks      []ack
	firstErr  error
}

// clock is the generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// loadPlan fixes one lane's schedule. Requests due (or, closed loop,
// sent) before measureFrom are warm-up and leave no sample.
type loadPlan struct {
	start, measureFrom, end time.Time
	interval                time.Duration // open loop: time between this lane's sends; 0 is closed loop
	phase                   time.Duration // open loop: this lane's offset into the interval
}

// sender is what a lane drives: it sends one request and reports the
// status. *wireConn is the real one.
type sender interface {
	do(wire []byte, keep bool) (int, []byte, error)
}

// runLane drives one connection through its request stream. A closed
// loop sends the next request as soon as the previous one completes. An
// open loop has request i due at start + phase + i×interval. If the lane
// is still busy then, the request goes out as soon as it is free and is
// timed from the due moment, so the wait a stall imposes on the requests
// queued behind it is counted. If the lane is idle it sleeps until the
// due moment and times the request from when it woke: a late wake-up is
// the generator's timer, not the server, and is reported as late_frac.
func runLane(clk clock, conn sender, reqs []request, plan loadPlan) *laneResult {
	res := &laneResult{}
	if est := int(plan.end.Sub(plan.measureFrom)/(50*time.Microsecond)) + 1; est > 0 {
		res.samples = make([]sample, 0, min(est, 1<<20))
	}
	for i := 0; ; i++ {
		if plan.interval > 0 && i >= len(reqs) {
			break // a write stream is stateful and never wraps
		}
		r := &reqs[i%len(reqs)]
		now := clk.Now()
		from, sched := now, now // timed from; scheduled at
		if plan.interval > 0 {
			due := plan.start.Add(plan.phase + time.Duration(i)*plan.interval)
			if !due.Before(plan.end) {
				break
			}
			from, sched = due, due
			if now.Before(due) {
				clk.Sleep(due.Sub(now))
				from = clk.Now()
			}
		} else if !now.Before(plan.end) {
			break
		}
		measured := !sched.Before(plan.measureFrom)
		if measured && plan.interval > 0 {
			res.sent++
			if lag := from.Sub(sched); lag > lateAfter {
				res.late++
				res.maxLag = max(res.maxLag, lag)
			}
		}
		check := measured && r.kind == kQuery && res.attempted%oracleEvery == 0
		status, body, err := conn.do(r.wire, check || r.kind != kQuery)
		done := clk.Now()

		ok := err == nil && status == http.StatusOK && done.Sub(from) <= requestDeadline
		if r.kind == kDelete && ok {
			ok = bytes.Contains(body, []byte(`"found":true`))
		}
		if r.kind != kQuery {
			res.acks = append(res.acks, ack{req: r, acked: ok})
		}
		if !measured {
			continue
		}
		res.attempted++
		switch {
		case ok:
			ops := int32(1)
			if r.kind == kQuery {
				ops = int32(len(r.queries))
			}
			res.samples = append(res.samples, sample{at: int64(sched.Sub(plan.measureFrom)), lat: int64(done.Sub(from)), kind: r.kind, ops: ops})
			if check {
				res.kept = append(res.kept, kept{req: r, body: append([]byte(nil), body...)})
			}
		case err == nil && (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable):
			res.shed++
		default:
			res.failed++
			if res.firstErr == nil {
				if err == nil {
					err = fmt.Errorf("HTTP %d after %v: %.200s", status, done.Sub(from), body)
				}
				res.firstErr = err
			}
		}
	}
	return res
}

// runLoad runs every lane of the stream against addr and returns their
// results in lane order. edge is called when the measured window starts
// and again when the last lane has finished; elapsed is the time between
// the two. A closed loop finishes one request past the window. An open
// loop sends everything that was due within the window, so it finishes
// when its backlog, if it has one, is drained.
func runLoad(addr string, st *stream, sp spec, warmup, window time.Duration, edge func(end bool)) (lanes []*laneResult, elapsed time.Duration) {
	start := time.Now().Add(10 * time.Millisecond)
	plan := loadPlan{start: start, measureFrom: start.Add(warmup), end: start.Add(warmup + window)}
	if sp.rate > 0 {
		plan.interval = time.Second * time.Duration(sp.lanes) / time.Duration(sp.rate)
	}
	out := make([]*laneResult, sp.lanes)
	var wg sync.WaitGroup
	for l := range out {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			p := plan
			p.phase = plan.interval * time.Duration(l) / time.Duration(sp.lanes)
			conn := &wireConn{addr: addr}
			defer conn.close()
			out[l] = runLane(wallClock{}, conn, st.lanes[l], p)
		}(l)
	}
	time.Sleep(time.Until(plan.measureFrom))
	edge(false)
	wg.Wait()
	elapsed = time.Since(plan.measureFrom)
	edge(true)
	return out, elapsed
}

// checkKept runs the oracle over the responses a lane kept: every
// checked count, and every hit list where the response carries one, must
// match segdb.FilterHits over the generated set. In a batch response a
// quarter of the sub-queries is checked, rotating with the sample.
func checkKept(st *stream, base []segdb.Segment, keptResponses []kept) (checked, mismatched int, first string) {
	fail := func(format string, a ...any) {
		mismatched++
		if first == "" {
			first = fmt.Sprintf(format, a...)
		}
	}
	for n, k := range keptResponses {
		var resp server.QueryResponse
		if err := json.Unmarshal(k.body, &resp); err != nil {
			checked++
			fail("undecodable response: %v", err)
			continue
		}
		results := resp.Results
		stride := 4
		if len(k.req.queries) == 1 {
			results, stride = []server.QueryResult{resp.QueryResult}, 1
		}
		if len(results) != len(k.req.queries) {
			checked++
			fail("%d results for %d queries", len(results), len(k.req.queries))
			continue
		}
		for i := n % stride; i < len(results); i += stride {
			checked++
			q, got := k.req.queries[i], results[i]
			lo, hi, exact := st.answerBounds(q, base)
			switch {
			case got.Error != "":
				fail("query %v: server error %q", q, got.Error)
			case got.Count < lo || got.Count > hi:
				fail("query %v: count %d, want %d..%d", q, got.Count, lo, hi)
			case got.Hits != nil && lo == hi && !sameIDs(got.Hits, exact):
				fail("query %v: hit set differs from FilterHits", q)
			}
		}
	}
	return checked, mismatched, first
}

func sameIDs(got []server.WireSegment, want []segdb.Segment) bool {
	if len(got) != len(want) {
		return false
	}
	a := make([]uint64, len(got))
	b := make([]uint64, len(want))
	for i := range got {
		a[i], b[i] = got[i].ID, want[i].ID
	}
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// expectedLive folds the write history into the set of inserted segments
// that must be present after a crash (acknowledged insert, no
// acknowledged delete after it) and the IDs whose state is unknown
// because a write to them was not acknowledged.
func expectedLive(results []*laneResult) (live map[uint64]segdb.Segment, unknown map[uint64]bool, ackedWrites int) {
	live = make(map[uint64]segdb.Segment)
	unknown = make(map[uint64]bool)
	for _, res := range results {
		for _, a := range res.acks {
			id := a.req.seg.ID
			switch {
			case !a.acked:
				unknown[id] = true
			case a.req.kind == kInsert:
				live[id] = a.req.seg
				ackedWrites++
			default:
				delete(live, id)
				ackedWrites++
			}
		}
	}
	for id := range unknown {
		delete(live, id)
	}
	return live, unknown, ackedWrites
}

// verifyDurable reads every insert column back from a restarted daemon
// with one up-ray and requires exactly the expected live set: every
// acknowledged insert present, every acknowledged delete absent.
func verifyDurable(addr string, st *stream, live map[uint64]segdb.Segment, unknown map[uint64]bool) (checked int, err error) {
	conn := &wireConn{addr: addr}
	defer conn.close()
	for c := 0; c < laneColumns; c++ {
		x := st.columnX(c)
		// The column's segments start at x; probe just inside them.
		q := segdb.VRayUp(x+st.laneWidth()/2, st.insertFloor())
		req := server.QueryRequest{QuerySpec: wireSpec(q)}
		status, body, derr := conn.do(wireRequest("/v1/query", mustJSON(&req)), true)
		if derr != nil || status != http.StatusOK {
			return checked, fmt.Errorf("durability probe column %d: HTTP %d, %v", c, status, derr)
		}
		var resp server.QueryResponse
		if derr := json.Unmarshal(body, &resp); derr != nil {
			return checked, fmt.Errorf("durability probe column %d: %w", c, derr)
		}
		got := make(map[uint64]bool, len(resp.Hits))
		for _, h := range resp.Hits {
			got[h.ID] = true
			if _, ok := live[h.ID]; !ok && !unknown[h.ID] {
				return checked, fmt.Errorf("segment %d is stored after the crash but its delete was acknowledged (or it was never inserted)", h.ID)
			}
		}
		for id, seg := range live {
			if q.Hits(seg) {
				checked++
				if !got[id] {
					return checked, fmt.Errorf("segment %d: insert was acknowledged but it is missing after the crash", id)
				}
			}
		}
	}
	return checked, nil
}
