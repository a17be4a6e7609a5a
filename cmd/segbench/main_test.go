package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// docSections reads EXPERIMENTS.md and returns, per "## <id> — ..."
// heading, the lines of that section (up to the next "## " heading).
func docSections(t *testing.T) map[string][]string {
	t.Helper()
	b, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]string{}
	id := ""
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "## ") {
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "## "), " — ")
			sections[id] = []string{}
			continue
		}
		if id != "" {
			sections[id] = append(sections[id], line)
		}
	}
	return sections
}

// tableRows keeps the markdown table lines.
func tableRows(lines []string) []string {
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "|") {
			rows = append(rows, l)
		}
	}
	return rows
}

// TestTablesMatchExperimentsMD is the I/O invariant: EXPERIMENTS.md is
// the golden file. Every experiment, run at the seed the document was
// recorded at, must print exactly the table rows recorded under its
// heading, in order — so a change that moves a page count has to move
// the recorded table in the same diff.
func TestTablesMatchExperimentsMD(t *testing.T) {
	sections := docSections(t)
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			doc, ok := sections[e.name]
			if !ok {
				t.Fatalf("EXPERIMENTS.md has no \"## %s — \" section", e.name)
			}
			var out bytes.Buffer
			if code := run([]string{e.name}, &out, &out); code != 0 {
				t.Fatalf("exit %d: %s", code, out.String())
			}
			got := tableRows(strings.Split(out.String(), "\n"))
			want := tableRows(doc)
			if diff := firstDiff(want, got); diff != "" {
				t.Errorf("%s no longer reproduces its table in EXPERIMENTS.md: %s\n"+
					"If the change is intended, replace the table under \"## %s — \" with:\n\n%s",
					e.name, diff, e.name, strings.Join(got, "\n"))
			}
		})
	}
}

// firstDiff describes the first position where the recorded and the
// regenerated rows part ways; "" means they are equal.
func firstDiff(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "(no row)", "(no row)"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("row %d\n  recorded:    %s\n  regenerated: %s", i+1, w, g)
		}
	}
	return ""
}

func TestUnknownNameRunsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"E1", "bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran an experiment before rejecting the unknown name:\n%s", stdout.String())
	}
	want := `unknown experiment "bogus"; available: [E1 E10 E11 E12 E13 E14 E15 E16 E17 E18 E2 E3 E4 E5 E6 E7 E8 E9]` + "\n"
	if stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering E1 a second time did not panic")
		}
	}()
	register("E1", "dup", nil)
}
