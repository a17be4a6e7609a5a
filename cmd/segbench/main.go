// Command segbench regenerates the I/O-model experiments recorded in
// EXPERIMENTS.md: one table per complexity claim of the paper (the paper
// itself contains no empirical evaluation, so the experiments validate
// the shapes of Lemmas 1-4 and Theorems 1-2; see DESIGN.md §4). Every
// number it prints is a deterministic page count for a given seed, and
// main_test.go pins each table to the recorded one. Wall-clock numbers
// are the benchmark's job (bench/, BENCHMARK.json).
//
// Usage:
//
//	segbench [-seed N] [experiment ...]
//
// With no arguments every experiment runs in order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// defaultSeed is the seed EXPERIMENTS.md was recorded at.
const defaultSeed = 1998

type experiment struct {
	name  string
	title string
	run   func(w io.Writer, seed int64)
}

var experiments []experiment

func register(name, title string, run func(w io.Writer, seed int64)) {
	if _, dup := lookup(name); dup {
		panic("segbench: experiment " + name + " registered twice")
	}
	experiments = append(experiments, experiment{name, title, run})
}

func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on injectable arguments and streams; it returns the exit
// code. Every requested name is resolved before anything runs.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("segbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", defaultSeed, "random seed for workload generation")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	want := experiments
	if fs.NArg() > 0 {
		want = nil
		for _, name := range fs.Args() {
			e, ok := lookup(name)
			if !ok {
				names := make([]string, len(experiments))
				for i, e := range experiments {
					names[i] = e.name
				}
				sort.Strings(names)
				fmt.Fprintf(stderr, "unknown experiment %q; available: %v\n", name, names)
				return 2
			}
			want = append(want, e)
		}
	}
	for _, e := range want {
		fmt.Fprintf(stdout, "## %s — %s\n\n", e.name, e.title)
		e.run(stdout, *seed)
		fmt.Fprintln(stdout)
	}
	return 0
}
