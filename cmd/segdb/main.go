// Command segdb is a small demonstration CLI around the library: it
// generates NCT workloads, builds a file-backed index, and answers VS
// queries, printing answers and I/O statistics.
//
// Usage:
//
//	segdb gen     -kind layers|grid|levels|stacks -n 10000 -out segs.csv
//	segdb build   -in segs.csv -db index.db -b 32 [-sol 1|2]
//	segdb shard   -in segs.csv -out storedir -shards 4 -b 32
//	segdb query   -db index.db -x 10 -ylo 0 -yhi 5 [-check segs.csv]
//	segdb verify  -db index.db|storedir
//	segdb compact -db index.db
//
// build persists the index with a catalog page, atomically: it writes
// index.db.tmp with per-page checksums (catalog v3), fsyncs, renames and
// fsyncs the directory, so a crash leaves either the old file or the new
// one. query reopens it from disk without rebuilding and optionally
// cross-checks the answer against a linear scan of the original CSV.
// verify checks the whole file (catalog, every page checksum, full
// structural walk); compact rewrites it balanced and tightly packed
// through the same atomic commit, which also upgrades pre-checksum (v2)
// files to v3.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"segdb"
	"segdb/internal/shard"
	"segdb/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// commands maps each subcommand to its declaration: it registers its flags
// on fs and returns the body to run once run has parsed them. A body
// prints results on stdout and returns the error that ends it.
var commands = map[string]func(fs *flag.FlagSet) func(stdout io.Writer) error{
	"gen":     cmdGen,
	"build":   cmdBuild,
	"shard":   cmdShard,
	"query":   cmdQuery,
	"stats":   cmdStats,
	"verify":  cmdVerify,
	"compact": cmdCompact,
}

// usageError is a command-line mistake only the command can see (the flag
// package reports malformed flags itself): exit status 2, like them.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is main without the process: 0 on success, 2 for a command-line
// mistake (no or unknown subcommand, malformed flag, unknown -kind), 1
// for any failure of the command itself.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: segdb gen|build|shard|query|stats|verify|compact [flags]")
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := commands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag package has printed the mistake and the usage
	}
	var usage usageError
	switch err := body(stdout); {
	case err == nil:
		return 0
	case errors.As(err, &usage):
		fmt.Fprintln(stderr, err)
		return 2
	default:
		fmt.Fprintln(stderr, "segdb:", err)
		return 1
	}
}

func cmdVerify(fs *flag.FlagSet) func(io.Writer) error {
	db := fs.String("db", "index.db", "store file, or a sharded store directory")
	return func(stdout io.Writer) error {
		// A directory is a sharded store: verify every shard's checkpoint.
		if fi, err := os.Stat(*db); err == nil && fi.IsDir() {
			if err := shard.Verify(*db); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: ok (every shard's page checksums and structural walk verified)\n", *db)
			return nil
		}

		if err := segdb.VerifyIndexFile(*db); err != nil {
			return err
		}
		b, ps, err := segdb.ProbeFile(*db)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: ok (B=%d, %d bytes/page, every page checksum and the full structural walk verified)\n",
			*db, b, ps)
		return nil
	}
}

func cmdCompact(fs *flag.FlagSet) func(io.Writer) error {
	db := fs.String("db", "index.db", "store file")
	return func(stdout io.Writer) error {
		before := fileSize(*db)
		if err := segdb.CompactIndexFile(*db); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: compacted, %d -> %d bytes (atomic shadow-file commit)\n",
			*db, before, fileSize(*db))
		return nil
	}
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func cmdStats(fs *flag.FlagSet) func(io.Writer) error {
	db := fs.String("db", "index.db", "store file")
	b := fs.Int("b", 0, "block capacity (0 probes the file)")
	return func(stdout io.Writer) error {
		st, ix, err := segdb.OpenIndexFile(*db, *b, 64)
		if err != nil {
			return err
		}
		defer st.Close()
		fmt.Fprintf(stdout, "%s: %d pages in use (%d bytes/page)\n", *db, st.PagesInUse(), st.PageSize())
		type describer interface{ DescribeString() (string, error) }
		if d, ok := ix.(describer); ok {
			s, err := d.DescribeString()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, s)
		}
		return nil
	}
}

func cmdGen(fs *flag.FlagSet) func(io.Writer) error {
	kind := fs.String("kind", "layers", "workload family: layers|grid|levels|stacks|wide")
	n := fs.Int("n", 10000, "approximate segment count")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "segs.csv", "output file")
	return func(stdout io.Writer) error {
		rng := rand.New(rand.NewSource(*seed))
		var segs []segdb.Segment
		switch *kind {
		case "layers":
			segs = workload.Layers(rng, *n/100+1, 100, float64(*n))
		case "grid":
			side := int(math.Sqrt(float64(*n) / 2))
			segs = workload.Grid(rng, side, side, 0.9, 0.2)
		case "levels":
			segs = workload.Levels(rng, *n, float64(*n), 1.2)
		case "wide":
			segs = workload.WideLevels(rng, *n, float64(*n))
		case "stacks":
			segs = workload.Stacks(*n/100+1, 100, 20)
		case "random":
			// Raw crossing segments, repaired by planarization — the
			// ingestion path for un-noded data.
			raw := make([]segdb.Segment, *n)
			span := math.Sqrt(float64(*n)) * 4
			for i := range raw {
				x, y := rng.Float64()*span, rng.Float64()*span
				raw[i] = segdb.NewSegment(uint64(i+1), x, y,
					x+(rng.Float64()-0.5)*8, y+(rng.Float64()-0.5)*8)
			}
			pieces := segdb.Planarize(raw, 0)
			segs = segs[:0]
			for _, p := range pieces {
				segs = append(segs, p.Seg)
			}
			fmt.Fprintf(stdout, "planarized %d raw segments into %d NCT pieces\n", len(raw), len(segs))
		default:
			return usageError(fmt.Sprintf("unknown kind %q", *kind))
		}
		if err := segdb.ValidateNCT(segs); err != nil {
			return fmt.Errorf("generated workload invalid: %w", err)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, s := range segs {
			fmt.Fprintf(w, "%d,%g,%g,%g,%g\n", s.ID, s.A.X, s.A.Y, s.B.X, s.B.Y)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d segments to %s\n", len(segs), *out)
		return nil
	}
}

func cmdBuild(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "segs.csv", "segment CSV")
	db := fs.String("db", "index.db", "store file")
	b := fs.Int("b", 32, "block capacity in segments")
	sol := fs.Int("sol", 2, "solution 1 or 2")
	return func(stdout io.Writer) error {
		segs, err := workload.ReadCSV(*in)
		if err != nil {
			return err
		}
		// BuildIndexFile is the crash-safe path: the index is written to
		// *db.tmp with page checksums, fsynced, renamed over *db, and the
		// directory is fsynced — a crash mid-build leaves the old file.
		if err := segdb.BuildIndexFile(*db, segdb.Options{B: *b}, *sol, segs); err != nil {
			return err
		}
		st, ix, err := segdb.OpenIndexFile(*db, 0, 64)
		if err != nil {
			return err
		}
		defer st.Close()
		fmt.Fprintf(stdout, "built solution %d over %d segments: %d pages (%s, checksummed v3)\n",
			*sol, ix.Len(), st.PagesInUse(), *db)
		return nil
	}
}

// cmdShard builds a sharded store directory: K-1 left-endpoint-quantile
// cuts, one crash-safe per-shard index build (in parallel), a manifest
// committed last as the atomic creation point. Serve it with
// `segdbd -shards=K -db <dir>`.
func cmdShard(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "segs.csv", "segment CSV")
	out := fs.String("out", "shards", "output store directory")
	k := fs.Int("shards", 4, "shard count K")
	b := fs.Int("b", 32, "block capacity in segments")
	return func(stdout io.Writer) error {
		segs, err := workload.ReadCSV(*in)
		if err != nil {
			return err
		}
		s, err := shard.Create(*out, shard.Config{
			Shards:  *k,
			Durable: segdb.DurableOptions{Build: segdb.Options{B: *b}},
		}, segs)
		if err != nil {
			return err
		}
		defer s.Close()
		fmt.Fprintf(stdout, "built %d shards over %d segments in %s (cuts %v)\n",
			s.Shards(), s.Len(), *out, s.Cuts())
		for _, row := range s.ShardStatus() {
			fmt.Fprintf(stdout, "  shard %d: %d segments, %d spanners, %d pages\n",
				row.Shard, row.Segments, row.Spanners, row.PagesInUse)
		}
		return nil
	}
}

func cmdQuery(fs *flag.FlagSet) func(io.Writer) error {
	db := fs.String("db", "index.db", "store file")
	b := fs.Int("b", 0, "block capacity (0 probes the file)")
	x := fs.Float64("x", 0, "query line x")
	ylo := fs.Float64("ylo", math.Inf(-1), "lower y bound (omit for a ray/line)")
	yhi := fs.Float64("yhi", math.Inf(1), "upper y bound (omit for a ray/line)")
	check := fs.String("check", "", "optional CSV to cross-check the answer against")
	verbose := fs.Bool("v", false, "print every hit")
	return func(stdout io.Writer) error {
		st, ix, err := segdb.OpenIndexFile(*db, *b, 64)
		if err != nil {
			return err
		}
		defer st.Close()

		q := segdb.Query{X: *x, YLo: *ylo, YHi: *yhi}
		st.DropCache()
		st.ResetStats()
		hits, err := segdb.CollectQuery(ix, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%v -> %d segments, %d page reads (index of %d segments, reopened from catalog)\n",
			q, len(hits), st.Stats().Reads, ix.Len())
		if *verbose {
			for _, s := range hits {
				fmt.Fprintf(stdout, "  %v\n", s)
			}
		}
		if *check != "" {
			segs, err := workload.ReadCSV(*check)
			if err != nil {
				return err
			}
			if want := len(segdb.FilterHits(q, segs)); want != len(hits) {
				return fmt.Errorf("index answer %d disagrees with scan %d", len(hits), want)
			}
			fmt.Fprintln(stdout, "answer verified against CSV scan")
		}
		return nil
	}
}
