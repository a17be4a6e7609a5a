package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
