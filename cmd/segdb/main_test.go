package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"segdb"
	"segdb/internal/faultdev"
	"segdb/internal/pager"
)

// TestRun drives the CLI in process: the exit status and where each kind
// of failure is reported — a command-line mistake is usage on stderr and
// status 2, a failing command is "segdb: <error>" and status 1, and
// neither leaves anything on stdout or a half-written file behind.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "segs.csv")
	db := filepath.Join(dir, "index.db")
	if code := run([]string{"gen", "-kind", "layers", "-n", "300", "-out", csv}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("gen: exit %d", code)
	}
	missing := filepath.Join(dir, "no-such.db")
	badCSV := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(badCSV, []byte("1,0,0,1,1\n2,0,zero,1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		args       []string
		code       int
		stdout     string // substring; "" wants stdout empty
		stderr     string // substring; "" wants stderr empty
		mustNotAdd string // a path the command must not leave behind
	}{
		{name: "no subcommand", args: nil, code: 2, stderr: "usage: segdb gen|build|"},
		{name: "unknown subcommand", args: []string{"frobnicate", "-db", db}, code: 2, stderr: "usage: segdb gen|build|"},
		{name: "malformed flag", args: []string{"build", "-b", "many"}, code: 2, stderr: "invalid value"},
		{name: "unknown kind", args: []string{"gen", "-kind", "spiral", "-out", filepath.Join(dir, "x.csv")}, code: 2,
			stderr: `unknown kind "spiral"`, mustNotAdd: filepath.Join(dir, "x.csv")},
		{name: "query missing db", args: []string{"query", "-db", missing, "-x", "1"}, code: 1, stderr: "segdb: "},
		{name: "verify missing db", args: []string{"verify", "-db", missing}, code: 1, stderr: "segdb: "},
		{name: "compact missing db", args: []string{"compact", "-db", missing}, code: 1, stderr: "segdb: ", mustNotAdd: missing},
		{name: "bad sol", args: []string{"build", "-in", csv, "-db", missing, "-sol", "3"}, code: 1,
			stderr: "unknown solution 3", mustNotAdd: missing},
		{name: "malformed csv line", args: []string{"build", "-in", badCSV, "-db", missing}, code: 1,
			stderr: "bad.csv line 2", mustNotAdd: missing},
		{name: "build", args: []string{"build", "-in", csv, "-db", db, "-b", "16"}, code: 0, stdout: "built solution 2 over"},
		{name: "query checks against the csv", args: []string{"query", "-db", db, "-x", "150", "-check", csv}, code: 0,
			stdout: "answer verified against CSV scan"},
		{name: "verify", args: []string{"verify", "-db", db}, code: 0, stdout: ": ok (B=16"},
		{name: "help", args: []string{"stats", "-h"}, code: 0, stderr: "Usage of stats"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("run(%q) = %d, want %d\nstdout: %s\nstderr: %s", tc.args, code, tc.code, &stdout, &stderr)
			}
			for _, s := range []struct {
				what, got, want string
			}{{"stdout", stdout.String(), tc.stdout}, {"stderr", stderr.String(), tc.stderr}} {
				if (s.want == "") != (s.got == "") || !strings.Contains(s.got, s.want) {
					t.Errorf("run(%q) %s = %q, want one containing %q", tc.args, s.what, s.got, s.want)
				}
			}
			if tc.mustNotAdd != "" {
				for _, p := range []string{tc.mustNotAdd, tc.mustNotAdd + ".tmp"} {
					if _, err := os.Stat(p); err == nil {
						t.Errorf("run(%q) left %s behind", tc.args, p)
					}
				}
			}
		})
	}
}

// TestReadersLeaveInFlightCheckpoint: stats, query and verify may run
// against the checkpoint of a live durable index (what `segdbd -wal`
// serves). With that index's compaction paused mid-copy, none of them
// may remove its <db>.tmp shadow, and the compaction then commits.
func TestReadersLeaveInFlightCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "rw.db")
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool // pause the next compaction, not the first-boot build
	d, err := segdb.OpenDurableIndex(db, filepath.Join(dir, "rw.wal"), segdb.DurableOptions{
		Build: segdb.Options{B: 16},
		CheckpointDevice: func(dev pager.Device) pager.Device {
			return &faultdev.Tap{Device: dev, BeforeWrite: func(write, _ int) {
				if write == 2 && armed.CompareAndSwap(true, false) {
					close(entered)
					<-release
				}
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 200; i++ {
		x := float64(10 * i)
		if _, err := d.Insert(segdb.Segment{ID: uint64(i + 1), A: segdb.Point{X: x, Y: x}, B: segdb.Point{X: x + 5, Y: x}}); err != nil {
			t.Fatal(err)
		}
	}
	armed.Store(true)
	compacted := make(chan error, 1)
	go func() { compacted <- d.Compact() }()
	<-entered
	for _, args := range [][]string{
		{"stats", "-db", db},
		{"query", "-db", db, "-x", "12"},
		{"verify", "-db", db},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%q) beside the compaction = %d\nstderr: %s", args, code, &stderr)
		}
		if _, err := os.Stat(db + ".tmp"); err != nil {
			t.Fatalf("%s removed the in-flight checkpoint: %v", args[0], err)
		}
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatalf("compaction after the readers: %v", err)
	}
	if records, _, _ := d.WALStats(); records != 0 {
		t.Fatalf("rotated log holds %d records", records)
	}
}
