package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"segdb"
	"segdb/internal/server"
	"segdb/internal/workload"
)

// spec is one workload: the daemon it runs, the data it serves and the
// load it receives. BENCHMARK.json lists the same names with the reason
// each exists; bench/README.md has the longer account.
type spec struct {
	name     string
	segments int  // approximate N; the dataset is workload.Layers(N/100+1 layers × 100)
	sol      int  // 2: read-only file-backed Solution 2; 1: read-write Solution 1 + WAL
	cache    int  // segdbd -cache (buffer-pool pages)
	batch    int  // queries per request; 0 is the single form
	hits     bool // full hit payloads instead of counts
	writes   bool // 80 % queries / 10 % inserts / 10 % deletes
	lanes    int  // client connections, one worker each
	rate     int  // open loop: total requests per second over all lanes; 0 is closed loop
	streamSz int  // requests generated per lane; closed-loop read lanes wrap around
	// tail is the percentile request_tail_ms reports, fixed per workload so
	// that it means the same on every commit. The read workloads use p99 of
	// the whole window.
	//
	// On write-mixed the tail is made of a handful of events: every write
	// waits while a compaction runs, every connection soon holds a write,
	// and the request that was due as the compaction began waits for all
	// of it. A percentile of the whole window is then decided by the one
	// longest compaction of the run, and one compaction that meets a slow
	// moment of a shared machine moves it by half. So the window is cut
	// into slices of tailSlice, each long enough to hold a whole
	// compaction, the slowest request of each slice is taken (tail 100),
	// and request_tail_ms is the median of those: the length of the
	// typical stall. A stall in most slices shows; one slow slice does not.
	tail      float64
	tailSlice time.Duration // 0: one slice, the whole window
}

// closedLanes is the client count of the closed-loop workloads: the
// sandbox has two cores, shared by segdbd and this generator.
const closedLanes = 2

// write-mixed is an open loop at a frozen rate: a sixth of what the same
// mix reaches on the seed commit with every connection saturated
// (≈ 9 600 requests/s on the sandbox; see README.md), and a constant so
// that every later commit is offered the same load. A sixth rather than
// the half the issue asked for: daemon and generator together then keep
// about 0.7 of the two cores busy, and the shared host has spells in
// which it runs at half speed or holds a core back for milliseconds. At
// a third of capacity such a spell overloaded the pair and the median
// latency rose tenfold; at a sixth it rises by as much as the machine
// slows. The sandbox's timers tick at about 1.1 ms, so one connection
// cannot be paced faster than a request every few milliseconds without
// spinning a core the daemon needs; the rate is therefore spread over
// four connections of 400 requests/s each, which sleep between sends.
const (
	writeMixedRate  = 1600
	writeMixedLanes = 4
)

// compactRecords is write-mixed's -auto-compact-records. At the frozen
// rate a fifth of 1 600 requests/s are writes, so the log reaches it
// 1.25 s after a compaction; the governor polls every 250 ms and the
// compaction itself takes about 0.1 s, so one begins every 1.25 to 1.6 s.
// A slice of writeMixedTailSlice therefore always holds the beginning of
// at least one, and a 20 s window sees about fourteen. The index is
// rebuilt after every fiftieth of it changed, which no deployment would
// choose; the window is short and the stall is what is being measured.
const (
	compactRecords      = 400
	writeMixedTailSlice = 2500 * time.Millisecond
)

var specs = []spec{
	{name: "read-single", segments: 20000, sol: 2, cache: 4096, lanes: closedLanes, streamSz: 1 << 16, tail: 99},
	{name: "read-batch", segments: 20000, sol: 2, cache: 4096, batch: 64, hits: true, lanes: closedLanes, streamSz: 1 << 11, tail: 99},
	{name: "read-cold", segments: 200000, sol: 2, cache: 256, batch: 16, lanes: closedLanes, streamSz: 1 << 13, tail: 99},
	{name: "write-mixed", segments: 20000, sol: 1, cache: 4096, writes: true, lanes: writeMixedLanes, rate: writeMixedRate, tail: 100, tailSlice: writeMixedTailSlice},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// blockCapacity is B, the segments per page every index is built with.
const blockCapacity = 32

// genSegments is the seeded NCT dataset: GIS-like layers of x-monotone
// polylines, the same family `segdb gen -kind layers` writes.
func genSegments(sp spec, seed int64) []segdb.Segment {
	rng := rand.New(rand.NewSource(seed))
	return workload.Layers(rng, sp.segments/100+1, 100, float64(sp.segments))
}

type reqKind uint8

const (
	kQuery reqKind = iota
	kInsert
	kDelete
)

// request is one pre-encoded request of a lane's stream. wire is the
// complete HTTP/1.1 message, so the timed loop writes bytes and encodes
// nothing; the decoded form stays beside it for the oracle and for
// tracking which writes were acknowledged.
type request struct {
	wire    []byte
	kind    reqKind
	queries []segdb.Query // kQuery: one, or the batch
	seg     segdb.Segment // kInsert, kDelete
}

// laneColumns is the number of x positions inserted segments start at;
// the durability check reads each column back with one up-ray.
const laneColumns = 16

// stream is what one seed determines for one workload: the request
// sequence of every lane, plus what the oracle needs to bound an answer.
type stream struct {
	lanes [][]request
	box   workload.Rect
	// inserts[c] counts the segments any lane ever inserts into column c.
	// A query that can see the insert region (an up-ray or a line) is
	// checked against [base answer, base answer + inserts it could hit].
	inserts [laneColumns]int
}

func (s *stream) columnX(c int) float64 {
	return s.box.MinX + (s.box.MaxX-s.box.MinX)*0.9*float64(c)/laneColumns
}

func (s *stream) laneWidth() float64 { return (s.box.MaxX - s.box.MinX) / 10 }

// insertFloor is the y every inserted segment lies above. Stored data
// ends at box.MaxY, so inserted segments — horizontal, each on its own
// y — cross neither the data nor each other: the NCT contract of Insert
// holds by construction, as in cmd/segload.
func (s *stream) insertFloor() float64 { return s.box.MaxY + 100 }

// genStream builds every lane's request sequence from the seed. n is the
// number of requests per lane.
func genStream(sp spec, seed int64, segs []segdb.Segment, n int) *stream {
	st := &stream{box: workload.BBox(segs), lanes: make([][]request, sp.lanes)}
	for l := range st.lanes {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(l) + 1))
		st.lanes[l] = st.genLane(sp, rng, l, n)
	}
	return st
}

func (s *stream) genLane(sp spec, rng *rand.Rand, lane, n int) []request {
	out := make([]request, 0, n)
	var owned []segdb.Segment // inserted by this lane and not yet deleted
	var next uint64
	for len(out) < n {
		if sp.writes {
			switch r := rng.Float64(); {
			case r < 0.1 || (r < 0.2 && len(owned) == 0):
				next++
				col := rng.Intn(laneColumns)
				// Each lane owns a band of y far above the other's; each
				// insert takes the next y in the band.
				y := s.insertFloor() + float64(lane)*1e6 + float64(next)*0.01
				x := s.columnX(col)
				seg := segdb.NewSegment(uint64(lane+1)<<32|next, x, y, x+s.laneWidth(), y)
				owned = append(owned, seg)
				s.inserts[col]++
				out = append(out, updateRequest(kInsert, seg))
				continue
			case r < 0.2:
				// A delete targets a segment this lane inserted earlier; a
				// lane sends its requests one at a time, so the insert was
				// answered before the delete is sent.
				i := rng.Intn(len(owned))
				seg := owned[i]
				owned[i] = owned[len(owned)-1]
				owned = owned[:len(owned)-1]
				out = append(out, updateRequest(kDelete, seg))
				continue
			}
		}
		out = append(out, s.queryRequest(sp, rng))
	}
	return out
}

// randQuery draws from the fixed mix: 70 % short vertical segment, 20 %
// ray (up or down), 10 % line, x uniform over the data. The paper's query
// cost has an output term t; the three shapes make it vary.
func (s *stream) randQuery(rng *rand.Rand) segdb.Query {
	b := s.box
	x := b.MinX + rng.Float64()*(b.MaxX-b.MinX)
	switch r := rng.Float64(); {
	case r < 0.1:
		return segdb.VLine(x)
	case r < 0.3:
		y := b.MinY + rng.Float64()*(b.MaxY-b.MinY)
		if rng.Intn(2) == 0 {
			return segdb.VRayUp(x, y)
		}
		return segdb.VRayDown(x, y)
	default:
		h := (b.MaxY - b.MinY) / 50
		lo := b.MinY + rng.Float64()*(b.MaxY-b.MinY-h)
		return segdb.VSeg(x, lo, lo+h)
	}
}

func wireSpec(q segdb.Query) server.QuerySpec {
	qs := server.QuerySpec{X: q.X}
	if lo := q.YLo; lo > -1e300 {
		qs.YLo = &lo
	}
	if hi := q.YHi; hi < 1e300 {
		qs.YHi = &hi
	}
	return qs
}

func (s *stream) queryRequest(sp spec, rng *rand.Rand) request {
	req := server.QueryRequest{OmitHits: !sp.hits}
	r := request{kind: kQuery}
	if sp.batch > 0 {
		r.queries = make([]segdb.Query, sp.batch)
		req.Queries = make([]server.QuerySpec, sp.batch)
		for i := range r.queries {
			r.queries[i] = s.randQuery(rng)
			req.Queries[i] = wireSpec(r.queries[i])
		}
	} else {
		r.queries = []segdb.Query{s.randQuery(rng)}
		req.QuerySpec = wireSpec(r.queries[0])
	}
	r.wire = wireRequest("/v1/query", mustJSON(&req))
	return r
}

func updateRequest(kind reqKind, seg segdb.Segment) request {
	path := "/v1/insert"
	if kind == kDelete {
		path = "/v1/delete"
	}
	body := mustJSON(&server.UpdateRequest{WireSegment: server.WireSegment{
		ID: seg.ID, AX: seg.A.X, AY: seg.A.Y, BX: seg.B.X, BY: seg.B.Y,
	}})
	return request{kind: kind, seg: seg, wire: wireRequest(path, body)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encode request: %v", err))
	}
	return b
}

// wireRequest frames a JSON body as an HTTP/1.1 POST. The Host value is
// constant (Go's server does not check it), so a stream's bytes depend on
// the seed alone and not on the port the daemon happens to get.
func wireRequest(path string, body []byte) []byte {
	w := make([]byte, 0, 128+len(body))
	w = append(w, "POST "...)
	w = append(w, path...)
	w = append(w, " HTTP/1.1\r\nHost: segdbd\r\nContent-Type: application/json\r\nContent-Length: "...)
	w = strconv.AppendInt(w, int64(len(body)), 10)
	w = append(w, "\r\n\r\n"...)
	return append(w, body...)
}

// body is the JSON body inside the pre-encoded request.
func (r *request) body() []byte {
	i := bytes.Index(r.wire, []byte("\r\n\r\n"))
	return r.wire[i+4:]
}

// answerBounds returns the range the count of q's answer must lie in.
// The base data gives an exact answer unless q reaches the insert region
// above it; then every segment the stream may have inserted into a
// column q's x falls in can add one.
func (s *stream) answerBounds(q segdb.Query, base []segdb.Segment) (lo, hi int, exact []segdb.Segment) {
	exact = segdb.FilterHits(q, base)
	lo, hi = len(exact), len(exact)
	if q.YHi >= s.insertFloor() {
		for c, n := range s.inserts {
			if x0 := s.columnX(c); q.X >= x0 && q.X <= x0+s.laneWidth() {
				hi += n
			}
		}
	}
	return lo, hi, exact
}
