package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"segdb"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {0.1, 1},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// One stall far longer than the others moves a percentile of the whole
// window and leaves the median of the slices where it was; a window of
// one slice is the plain percentile.
func TestSlicedTailIsTheTypicalSlice(t *testing.T) {
	ms := int64(time.Millisecond)
	window := 10 * time.Second
	var samples []sample
	for i := int64(0); i < 10000; i++ { // one request a millisecond
		s := sample{at: i * ms, lat: ms}
		if i%1000 == 500 { // a stall in every second: 80 ms, and once 400 ms
			s.lat = 80 * ms
			if i == 3500 {
				s.lat = 400 * ms
			}
		}
		samples = append(samples, s)
	}
	tail, slices, fewest := slicedTail(samples, window, 2*time.Second, 100)
	if tail != 80 || slices != 5 || fewest != 2000 {
		t.Errorf("slicedTail(2 s slices) = %g ms over %d slices of at least %d, want 80 ms, 5, 2000", tail, slices, fewest)
	}
	if tail, slices, _ := slicedTail(samples, window, 0, 100); tail != 400 || slices != 1 {
		t.Errorf("slicedTail(whole window) = %g ms over %d slices, want 400 ms, 1", tail, slices)
	}
	// 3 s does not divide the window: three slices of 3⅓ s, none shorter than asked.
	if _, slices, fewest := slicedTail(samples, window, 3*time.Second, 100); slices != 3 || fewest != 3333 {
		t.Errorf("slicedTail(3 s slices) made %d slices of at least %d samples, want 3 and 3333", slices, fewest)
	}
}

// statistics.quantiles([1, ..., 10], n=4) is [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5], n=4) is [1.0, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g, want 1, 4.5", q1, q3)
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
}

var testSpec = spec{name: "t", segments: 1500, sol: 1, cache: 64, writes: true, lanes: 3, rate: 300}

func streamBytes(st *stream) []byte {
	var b bytes.Buffer
	for _, lane := range st.lanes {
		for _, r := range lane {
			b.Write(r.wire)
		}
	}
	return b.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) []byte {
		return streamBytes(genStream(testSpec, seed, genSegments(testSpec, seed), 400))
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different request streams")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	for _, sp := range specs {
		sp.segments = 1000
		st := genStream(sp, 3, genSegments(sp, 3), 50)
		if len(st.lanes) != sp.lanes {
			t.Errorf("%s: %d lanes, want %d", sp.name, len(st.lanes), sp.lanes)
		}
		for _, lane := range st.lanes {
			for _, r := range lane {
				if !bytes.HasPrefix(r.wire, []byte("POST /v1/")) || json.Valid(r.body()) == false {
					t.Fatalf("%s: malformed request %q", sp.name, r.wire)
				}
				if r.kind == kQuery && len(r.queries) != max(sp.batch, 1) {
					t.Fatalf("%s: request carries %d queries", sp.name, len(r.queries))
				}
			}
		}
	}
}

// Every segment the streams insert, together with the base set, must be
// NCT: that is the contract of Insert, which the server does not check.
func TestInsertsKeepTheSetNCT(t *testing.T) {
	segs := genSegments(testSpec, 5)
	st := genStream(testSpec, 5, segs, 600)
	all := append([]segdb.Segment(nil), segs...)
	inserts, deletes := 0, 0
	seen := make(map[uint64]bool)
	for _, lane := range st.lanes {
		live := make(map[uint64]bool)
		for _, r := range lane {
			switch r.kind {
			case kInsert:
				if seen[r.seg.ID] {
					t.Fatalf("segment id %d inserted twice", r.seg.ID)
				}
				seen[r.seg.ID], live[r.seg.ID] = true, true
				all = append(all, r.seg)
				inserts++
				if r.seg.MinY() < st.insertFloor() {
					t.Fatalf("insert %v below the insert floor", r.seg)
				}
			case kDelete:
				if !live[r.seg.ID] {
					t.Fatalf("delete of %d, which this lane does not hold", r.seg.ID)
				}
				delete(live, r.seg.ID)
				deletes++
			}
		}
	}
	if inserts < 100 || deletes < 50 {
		t.Fatalf("stream has %d inserts and %d deletes; the mix is off", inserts, deletes)
	}
	if err := segdb.ValidateNCT(all); err != nil {
		t.Fatalf("base set plus every insert is not NCT: %v", err)
	}
	var total int
	for _, n := range st.inserts {
		total += n
	}
	if total != inserts {
		t.Errorf("column counts sum to %d, stream has %d inserts", total, inserts)
	}
	// An up-ray from inside the data can see inserted segments; a short
	// segment query cannot, so its bounds must be exact.
	lo, hi, _ := st.answerBounds(segdb.VRayUp(st.columnX(3)+1, st.box.MinY), segs)
	if hi <= lo {
		t.Errorf("up-ray bounds %d..%d leave no room for inserted segments", lo, hi)
	}
	lo, hi, _ = st.answerBounds(segdb.VSeg(st.columnX(3)+1, st.box.MinY, st.box.MaxY), segs)
	if lo != hi {
		t.Errorf("a query inside the data has bounds %d..%d, want exact", lo, hi)
	}
}

// fakeClock advances only when told to; Sleep overshoots by oversleep.
type fakeClock struct {
	t         time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d + c.oversleep) }

// fakeSender answers 200 after the next service time.
type fakeSender struct {
	clk     *fakeClock
	service []time.Duration
	n       int
}

func (s *fakeSender) do([]byte, bool) (int, []byte, error) {
	s.clk.t = s.clk.t.Add(s.service[s.n%len(s.service)])
	s.n++
	return http.StatusOK, []byte(`{"found":true}`), nil
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	run := func(oversleep time.Duration) *laneResult {
		clk := &fakeClock{t: start.Add(-ms), oversleep: oversleep}
		conn := &fakeSender{clk: clk, service: []time.Duration{ms, 25 * ms, ms, ms, ms}}
		reqs := make([]request, 5)
		for i := range reqs {
			reqs[i] = request{kind: kInsert}
		}
		return runLane(clk, conn, reqs, loadPlan{start: start, measureFrom: start, end: start.Add(time.Second), interval: 10 * ms})
	}
	// Requests are due at 0, 10, 20, 30, 40 ms. The second takes 25 ms, so
	// the third goes out at 35 ms and the fourth at 36 ms: both are timed
	// from when they were due. The fifth finds the lane idle again.
	want := []time.Duration{ms, 25 * ms, 16 * ms, 7 * ms, ms}
	res := run(0)
	if len(res.samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(res.samples), len(want))
	}
	for i, w := range want {
		if got := time.Duration(res.samples[i].lat); got != w {
			t.Errorf("request %d timed at %v, want %v", i, got, w)
		}
	}
	if res.late != 0 || res.sent != 5 {
		t.Errorf("sent %d late %d, want 5 and 0", res.sent, res.late)
	}
	// A timer that wakes an idle lane late is the generator's error: the
	// request is timed from the wake-up and the lateness is counted.
	res = run(3 * ms)
	for i, w := range []time.Duration{ms, 25 * ms} {
		if got := time.Duration(res.samples[i].lat); got != w {
			t.Errorf("overslept request %d timed at %v, want %v", i, got, w)
		}
	}
	if res.late == 0 || res.maxLag != 3*ms {
		t.Errorf("late %d maxLag %v, want late wake-ups of 3ms counted", res.late, res.maxLag)
	}
}

func TestClosedLoopStopsAtTheEndAndSkipsWarmup(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	conn := &fakeSender{clk: clk, service: []time.Duration{2 * ms}}
	reqs := []request{{kind: kQuery, queries: make([]segdb.Query, 4)}}
	res := runLane(clk, conn, reqs, loadPlan{start: start, measureFrom: start.Add(10 * ms), end: start.Add(30 * ms)})
	if res.attempted != 10 || len(res.samples) != 10 {
		t.Fatalf("attempted %d, %d samples; want 10 measured requests after 5 of warm-up", res.attempted, len(res.samples))
	}
	if res.samples[0].ops != 4 || time.Duration(res.samples[0].lat) != 2*ms {
		t.Errorf("sample %+v, want 4 ops in 2ms", res.samples[0])
	}
	if len(res.kept) != 1 {
		t.Errorf("%d responses kept for the oracle, want the first of 10", len(res.kept))
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{layer: lClient, req: 0, parent: -1, start: 0, end: 100},
		{layer: lHandler, req: 0, parent: 0, start: 10, end: 90},
		{layer: lEngine, req: 0, parent: 1, start: 20, end: 70},
		{layer: lIndex, req: 0, parent: 2, start: 25, end: 40},
		{layer: lIndex, req: 0, parent: 2, start: 35, end: 60},  // overlaps its sibling
		{layer: lDevice, req: 0, parent: 4, start: 50, end: 80}, // overruns its parent
		{layer: lClient, req: 1, parent: -1, start: 200, end: 230},
	}
	want := []int64{20, 30, 15, 15, 15, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
	rows := layerLedger(spans, 2)
	if rows[0][lIndex] != 30 || rows[0][lClient] != 20 || rows[1][lClient] != 30 {
		t.Errorf("ledger rows %v", rows)
	}
}

func TestRecorderNestsAndNilIsInert(t *testing.T) {
	var off *recorder
	off.end(off.begin(lClient)) // must not panic

	rec := newRecorder(3)
	a := rec.begin(lClient)
	b := rec.begin(lHandler)
	rec.end(b)
	c := rec.begin(lHandler)
	rec.end(c)
	rec.end(a)
	d := rec.begin(lClient) // does not fit
	rec.end(d)
	got := rec.recorded()
	if len(got) != 3 || got[1].parent != 0 || got[2].parent != 0 || got[0].parent != -1 {
		t.Fatalf("recorded %+v", got)
	}
	if rec.dropped.Load() != 1 || d != -1 {
		t.Errorf("dropped %d, want the fourth span dropped", rec.dropped.Load())
	}
}

// BENCHMARK.json is the only list of metrics: this checks that it keeps
// to the contract's limits and that the result line carries exactly what
// it declares.
func TestManifestAndResultLine(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json") // also: the workloads are the program's, in order
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g must be in (0, 0.25]", d.Name, d.Bound)
		}
		if !d.isTime() && d.Name == "setup_s" {
			t.Errorf("setup_s must be declared in seconds")
		}
	}
	for _, d := range m.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || !seen["setup_s"] {
		t.Errorf("%d end-to-end and %d per-layer metrics, setup_s declared: %v", len(m.EndToEnd), len(m.PerLayer), seen["setup_s"])
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}

	// The result line carries every declared name. A count the workload
	// does not have goes in as 0; a time that was not measured is an error,
	// and so is a measurement under a name the file does not declare.
	defs := []metricDef{{Name: "setup_s", Unit: "s"}, {Name: "compact.runs", Unit: "count"}}
	res := &result{sp: specs[0], correct: true, attempted: 1}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	got, err := resultJSON(res, defs, map[string]float64{"setup_s": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(got), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != 2 || line.Metrics["setup_s"].Value != 0.25 || line.Metrics["setup_s"].Unit != "s" || line.Metrics["compact.runs"].Value != 0 {
		t.Errorf("result line %s", got)
	}
	if !line.Correct || line.Attempted != 1 || line.Failed != 0 {
		t.Errorf("result line %s", got)
	}
	if _, err := resultJSON(res, defs, map[string]float64{"compact.runs": 3}); err == nil {
		t.Error("a result line without its declared time metric was accepted")
	}
	if n := undeclared(defs, map[string]float64{"setup_s": 1, "sol9.query_ns": 2}); n != "sol9.query_ns" {
		t.Errorf("undeclared = %q, want sol9.query_ns", n)
	}
}
