// Command segdb-bench is the repository's benchmark: it generates a
// seeded NCT dataset, builds the index file, starts the real cmd/segdbd
// as a child process, drives it over loopback HTTP from two connections,
// checks the answers, and prints every metric by name with its unit. Run
// it through bench/run.sh, which builds both programs first.
//
// With -workload it is one driver run: the last line of standard output
// is the JSON result (end-to-end metrics with -trace 0, per-layer metrics
// with -trace 1). Without -workload it runs all four workloads, traced,
// and prints both sets; -repeat K runs the end-to-end side K times on K
// seeds and compares every metric's spread with its bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"segdb"
)

type env struct {
	segdbd string    // path of the built cmd/segdbd binary
	work   string    // scratch directory inside the checkout
	out    string    // where trace files go
	m      *manifest // BENCHMARK.json: the metrics this program may print
}

// tempDirs are removed on every exit path.
var tempDirs struct {
	sync.Mutex
	dirs []string
}

func cleanup() {
	killAllChildren()
	tempDirs.Lock()
	defer tempDirs.Unlock()
	for _, d := range tempDirs.dirs {
		os.RemoveAll(d)
	}
	tempDirs.dirs = nil
}

func fatalf(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "segdb-bench: "+format+"\n", a...)
	cleanup()
	os.Exit(code)
}

func main() {
	var e env
	workloadName := flag.String("workload", "", "run one workload (driver mode); empty runs all four")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same data and requests")
	seconds := flag.Int("seconds", 0, "measured window per run, seconds (default: run_seconds of BENCHMARK.json)")
	traced := flag.Int("trace", 0, "driver mode: 0 reports end-to-end metrics, 1 runs the layer ledger too and reports per-layer metrics")
	repeat := flag.Int("repeat", 0, "run every workload this many times on consecutive seeds and check each end-to-end metric's spread against its bound")
	flag.StringVar(&e.segdbd, "segdbd", "", "path of the segdbd binary (bench/run.sh builds it)")
	flag.StringVar(&e.work, "work", ".bench_build", "scratch directory")
	flag.StringVar(&e.out, "out", "bench/out", "directory for <workload>.trace.json")
	manifestPath := flag.String("manifest", "BENCHMARK.json", "the benchmark's declaration: workloads, metric names, units and bounds")
	flag.Parse()

	if e.segdbd == "" {
		fatalf(2, "no -segdbd binary given; run bench/run.sh from the repository root")
	}
	abs, err := filepath.Abs(e.segdbd)
	if err != nil {
		fatalf(2, "%v", err)
	}
	e.segdbd = abs
	if _, err := os.Stat(e.segdbd); err != nil {
		fatalf(2, "segdbd binary: %v", err)
	}
	if e.m, err = loadManifest(*manifestPath); err != nil {
		fatalf(2, "%v", err)
	}
	if *seconds == 0 {
		*seconds = e.m.RunSeconds
	}
	if pids := staleDaemons(e.segdbd); len(pids) > 0 {
		fatalf(3, "a segdbd from an earlier run is still alive (pid %v); kill it first", pids)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fatalf(130, "%v: stopping", sig)
	}()
	defer func() {
		if p := recover(); p != nil {
			cleanup()
			panic(p)
		}
	}()

	ok := true
	switch {
	case *workloadName != "":
		sp, found := specByName(*workloadName)
		if !found {
			fatalf(2, "unknown workload %q", *workloadName)
		}
		res, err := runWorkload(e, sp, *seed, *seconds, *traced == 1)
		if err != nil {
			fatalf(1, "%s: %v", sp.name, err)
		}
		printHeader()
		defs, values := e.m.EndToEnd, res.e2e
		if *traced == 1 {
			defs, values = e.m.PerLayer, res.layer
		}
		printResult(e.m, res, *traced == 0, *traced == 1)
		line, err := resultJSON(res, defs, values)
		if err != nil {
			fatalf(1, "%s: %v", sp.name, err)
		}
		fmt.Println(line)
		// The exit code speaks for segdbd's outputs, like "correct" in the
		// line; an invalid measurement is said so in the notes above it.
		ok = res.correct
	case *repeat > 0:
		ok = runRepeat(e, *seed, *seconds, *repeat)
	default:
		printHeader()
		for _, sp := range specs {
			res, err := runWorkload(e, sp, *seed, *seconds, true)
			if err != nil {
				fatalf(1, "%s: %v", sp.name, err)
			}
			printResult(e.m, res, true, true)
			ok = ok && res.correct && res.valid
		}
	}
	cleanup()
	if !ok {
		os.Exit(1)
	}
}

func printHeader() {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# segdb-bench: nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# page size %d B (B = %d segments/page), warm-up %v\n",
		segdb.PageSizeFor(blockCapacity), blockCapacity, warmup)
	fmt.Printf("# flush policy: WAL fsync before every acknowledgement, -group-commit-window 0; index files fsynced at build\n")
}

// result is one run of one workload.
type result struct {
	sp                spec
	seed              int64
	segments          int // in the generated dataset
	attempted, failed int
	correct           bool // every checked output of segdbd was right and no request failed
	valid             bool // the measurement is what the workload declares; see run.invalid
	e2e, layer        map[string]float64
	notes             []string
}

// printMetrics prints what was measured, in the order of declaration. A
// metric that does not apply to the workload was not measured and has no
// row.
func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Printf("%-32s %16s %s\n", d.Name, strconv.FormatFloat(v, 'g', 6, 64), d.Unit)
		}
	}
}

func printResult(m *manifest, res *result, endToEndToo, perLayerToo bool) {
	fmt.Printf("\n== %s  seed %d  attempted %d  failed %d  correct %v  valid %v\n",
		res.sp.name, res.seed, res.attempted, res.failed, res.correct, res.valid)
	fmt.Printf("   segdbd %s; %d segments; %d connections\n",
		strings.Join(daemonArgs(res.sp, "index.db"), " "), res.segments, res.sp.lanes)
	for _, n := range res.notes {
		fmt.Printf("   %s\n", n)
	}
	if endToEndToo {
		fmt.Println("-- end to end")
		printMetrics(m.EndToEnd, res.e2e)
	}
	if perLayerToo {
		fmt.Println("-- per layer")
		printMetrics(m.PerLayer, res.layer)
	}
}

// resultJSON is the driver's result line: every declared metric of one
// kind. See metricDef.isTime for what stands in for a metric the workload
// does not have.
func resultJSON(res *result, defs []metricDef, values map[string]float64) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %v, "attempted": %d, "failed": %d, "metrics": {`, res.correct, res.attempted, res.failed)
	for i, d := range defs {
		v, ok := values[d.Name]
		if !ok && d.isTime() {
			return "", fmt.Errorf("%s is declared and was not measured", d.Name)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}

// runRepeat is how bounds are calibrated and how acceptance is checked:
// K runs of every workload, then per workload × end-to-end metric the
// median, the quartiles, the spread (interquartile distance over the
// median) and the bound. It reports false if a spread exceeds its bound
// or a run was incorrect or invalid.
func runRepeat(e env, seed int64, seconds, k int) bool {
	printHeader()
	ok := true
	for _, sp := range specs {
		series := make(map[string][]float64)
		for i := 0; i < k; i++ {
			res, err := runWorkload(e, sp, seed+int64(i), seconds, false)
			if err != nil {
				fatalf(1, "%s: %v", sp.name, err)
			}
			if !res.correct || !res.valid {
				ok = false
				fmt.Printf("%s seed %d:\n   %s\n", sp.name, res.seed, strings.Join(res.notes, "\n   "))
			}
			for name, v := range res.e2e {
				series[name] = append(series[name], v)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done\n", sp.name, i+1, k)
		}
		fmt.Printf("\n== %s  %d runs, seeds %d..%d\n", sp.name, k, seed, seed+int64(k)-1)
		fmt.Printf("%-24s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range e.m.EndToEnd {
			v := series[d.Name]
			q1, q3 := quartiles(v)
			s := spread(v)
			flag := ""
			if s > d.Bound {
				flag, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-24s %12.6g %12.6g %12.6g %8.4f %8.2f%s\n", d.Name, median(v), q1, q3, s, d.Bound, flag)
		}
	}
	return ok
}
