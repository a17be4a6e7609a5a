package server_test

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"segdb"
	"segdb/internal/server"
)

// compactingUpdater is a healthy Updater that also implements Compacter,
// with a settable Compact outcome, and reports a fixed lock-held time
// for its last compaction the way DurableIndex and shard.Store do.
type compactingUpdater struct {
	mu         sync.Mutex
	compactErr error
	compacts   int
}

const fakeStall = 3 * time.Millisecond

func (u *compactingUpdater) LastCompactStall() time.Duration { return fakeStall }

func (u *compactingUpdater) Insert(segdb.Segment) (segdb.UpdateStats, error) {
	return segdb.UpdateStats{}, nil
}

func (u *compactingUpdater) Delete(segdb.Segment) (bool, segdb.UpdateStats, error) {
	return true, segdb.UpdateStats{}, nil
}

func (u *compactingUpdater) WALStats() (records, size, durable int64) { return 5, 253, 253 }
func (u *compactingUpdater) WALWedged() error                         { return nil }

func (u *compactingUpdater) Compact() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.compacts++
	return u.compactErr
}

func (u *compactingUpdater) fail(err error) {
	u.mu.Lock()
	u.compactErr = err
	u.mu.Unlock()
}

// TestServeCompactStats checks the compaction registry end to end: the
// admin endpoint and the governor's observation hooks feed one set of
// counters, /statsz and /metricsz render them, a compaction over the
// SlowCompact budget lands in the slow log, and a server whose Updater
// cannot compact exposes none of it.
func TestServeCompactStats(t *testing.T) {
	up := &compactingUpdater{}
	hs, srv, _ := testServer(t, server.Config{Updater: up, SlowCompact: 50 * time.Millisecond})

	post := func(wantStatus int) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/admin/compact", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("admin compact returned %d, want %d", resp.StatusCode, wantStatus)
		}
	}

	post(http.StatusOK)
	cs := srv.CompactStats()
	if cs.Total != 1 || cs.Auto != 0 || cs.Failures != 0 {
		t.Fatalf("after admin compact: %+v", cs)
	}
	if cs.LastAgeSeconds < 0 {
		t.Fatalf("LastAgeSeconds = %v after a compaction, want >= 0", cs.LastAgeSeconds)
	}

	// The governor reports through the same hooks: an auto compaction
	// over the SlowCompact budget counts AND slow-logs.
	srv.ObserveCompaction(true, 80*time.Millisecond, nil)
	srv.ObserveCompactDeferral()
	cs = srv.CompactStats()
	if cs.Total != 2 || cs.Auto != 1 || cs.Deferred != 1 {
		t.Fatalf("after auto compact + deferral: %+v", cs)
	}
	// The two times are kept apart: 80 ms of run time, 3 ms of it with
	// the update lock held. The budget judged the run time.
	if cs.LastDurationMS != 80 || cs.LastStallMS != 3 {
		t.Fatalf("last compaction ran %v ms, stalled %v ms; want 80 and 3", cs.LastDurationMS, cs.LastStallMS)
	}
	slow := srv.SlowLog().Snapshot()
	found := false
	for _, e := range slow.Entries {
		if e.Endpoint == "compact" && e.Query == "auto" && e.Status == "ok" {
			found = true
			if e.ElapsedMS != 80 || e.StallMS != 3 {
				t.Fatalf("slow compact entry: elapsed %v ms, stall %v ms; want 80 and 3", e.ElapsedMS, e.StallMS)
			}
		}
	}
	if !found {
		t.Fatalf("slow log missing the over-budget auto compaction: %+v", slow.Entries)
	}

	// A fast compaction stays out of the slow log.
	srv.ObserveCompaction(true, time.Millisecond, nil)
	if got := srv.SlowLog().Snapshot().Total; got != slow.Total {
		t.Fatalf("under-budget compaction slow-logged (total %d -> %d)", slow.Total, got)
	}

	// Failure: the admin endpoint 500s and the failure counter moves.
	up.fail(segdb.ErrUnsupported)
	post(http.StatusInternalServerError)
	cs = srv.CompactStats()
	if cs.Total != 4 || cs.Failures != 1 {
		t.Fatalf("after failed compact: %+v", cs)
	}

	// Both observability surfaces carry the section.
	snap := srv.Snapshot()
	if snap.Compact == nil || snap.Compact.Total != 4 {
		t.Fatalf("statsz compact section = %+v", snap.Compact)
	}
	resp, err := http.Get(hs.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{
		"segdb_compact_total 4",
		"segdb_compact_failures_total 1",
		"segdb_compact_auto_total 2",
		"segdb_compact_deferred_total 1",
		"segdb_compact_last_age_seconds",
		"segdb_compact_last_duration_seconds",
		"segdb_compact_last_stall_seconds 0.003",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metricsz missing %q:\n%s", want, buf.String())
		}
	}
	// The new series goes through the strict parser like every other.
	samples, types := parsePromStrict(t, buf.String())
	if types["segdb_compact_last_stall_seconds"] != "gauge" {
		t.Fatalf("segdb_compact_last_stall_seconds has type %q, want gauge", types["segdb_compact_last_stall_seconds"])
	}
	for _, sm := range samples {
		if sm.Name == "segdb_compact_last_stall_seconds" && (sm.Value != fakeStall.Seconds() || len(sm.Labels) != 0) {
			t.Fatalf("segdb_compact_last_stall_seconds = %v %v, want %v unlabelled", sm.Value, sm.Labels, fakeStall.Seconds())
		}
	}

	// No Compacter, no section: read-only servers don't advertise a
	// compaction surface they don't have.
	hs2, srv2, _ := testServer(t, server.Config{Updater: &wedgedUpdater{}})
	if snap := srv2.Snapshot(); snap.Compact != nil {
		t.Fatalf("non-compacting server grew a compact section: %+v", snap.Compact)
	}
	resp2, err := http.Get(hs2.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf.Reset()
	buf.ReadFrom(resp2.Body)
	if strings.Contains(buf.String(), "segdb_compact_total") {
		t.Fatal("/metricsz exports compact counters without a Compacter")
	}
}
