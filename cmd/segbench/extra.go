package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"segdb/internal/geom"
	"segdb/internal/pager"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
	"segdb/internal/workload"
)

// Experiments beyond the paper's claims: engineering sensitivities a
// deployment would want quantified.
func init() {
	register("E15", "buffer-pool sensitivity: physical reads per query vs cache size", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		const n = 32000
		segs := workload.Layers(rng, n/100, 100, float64(n))
		box := workload.BBox(segs)
		queries := workload.RandomVS(rng, benchProbe, box, 5)
		fmt.Fprintln(w, "| pool pages | physical reads/query | cache hits/query |")
		fmt.Fprintln(w, "|------------|----------------------|-------------------|")
		for _, pool := range []int{0, 8, 64, 512, 4096} {
			st := pager.MustOpenMem(pageSize(benchB), pool)
			ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
			if err != nil {
				panic(err)
			}
			st.DropCache()
			st.ResetStats()
			for _, q := range queries {
				if _, err := ix.Query(q, func(geom.Segment) {}); err != nil {
					panic(err)
				}
			}
			s := st.Stats()
			fmt.Fprintf(w, "| %d | %.1f | %.1f |\n", pool,
				float64(s.Reads)/float64(len(queries)),
				float64(s.CacheHits)/float64(len(queries)))
		}
	})

	register("E16", "workload-family sweep: query cost across data shapes (N≈16k)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		families := []struct {
			name string
			segs []geom.Segment
		}{
			{"layers (GIS contours)", workload.Layers(rng, 160, 100, 16000)},
			{"grid (streets)", workload.Grid(rng, 90, 90, 0.95, 0.2)},
			{"levels (intervals)", workload.Levels(rng, 16000, 16000, 1.3)},
			{"wide (long-heavy)", workload.WideLevels(rng, 16000, 1600)},
			{"stacks (columns)", workload.Stacks(160, 100, 20)},
		}
		fmt.Fprintln(w, "| family | N | sol1 reads | sol2 reads | avg T |")
		fmt.Fprintln(w, "|--------|---|------------|------------|-------|")
		for _, f := range families {
			box := workload.BBox(f.segs)
			queries := workload.RandomVS(rng, benchProbe, box, (box.MaxY-box.MinY)/50)

			st1 := newStore(benchB)
			ix1, err := sol1.Build(st1, sol1.Config{B: benchB}, f.segs)
			if err != nil {
				panic(err)
			}
			r1, avgT := avgReads(st1, queries, func(q geom.VQuery) (int, error) {
				s, err := ix1.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			st2 := newStore(benchB)
			ix2, err := sol2.Build(st2, sol2.Config{B: benchB}, f.segs)
			if err != nil {
				panic(err)
			}
			r2, _ := avgReads(st2, queries, func(q geom.VQuery) (int, error) {
				s, err := ix2.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			fmt.Fprintf(w, "| %s | %d | %.1f | %.1f | %.1f |\n", f.name, len(f.segs), r1, r2, avgT)
		}
	})

	register("E17", "ingestion pipeline: planarize raw crossing data, then index it", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| raw segments | NCT pieces | pieces/raw | planarize+build pages | reads/query |")
		fmt.Fprintln(w, "|--------------|------------|------------|------------------------|-------------|")
		for _, n := range []int{2000, 8000, 32000} {
			raw := make([]geom.Segment, n)
			span := 4 * float64(n)
			for i := range raw {
				x, y := rng.Float64()*span, rng.Float64()*span
				raw[i] = geom.Seg(uint64(i+1), x, y,
					x+(rng.Float64()-0.5)*100, y+(rng.Float64()-0.5)*100)
			}
			pieces := geom.Planarize(raw, 0)
			segs := make([]geom.Segment, len(pieces))
			for i, p := range pieces {
				segs[i] = p.Seg
			}
			if err := geom.ValidateNCT(segs); err != nil {
				panic(err)
			}
			st := newStore(benchB)
			ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
			if err != nil {
				panic(err)
			}
			box := workload.BBox(segs)
			queries := workload.RandomVS(rng, benchProbe, box, 50)
			reads, _ := avgReads(st, queries, func(q geom.VQuery) (int, error) {
				s, err := ix.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			fmt.Fprintf(w, "| %d | %d | %.2f | %d | %.1f |\n",
				n, len(segs), float64(len(segs))/float64(n), st.PagesInUse(), reads)
		}
	})

	register("E18", "amortization anatomy: worst single insert vs amortized (rebuild spikes)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		const n = 16000
		fmt.Fprintln(w, "| structure | amortized I/Os | p99 I/Os | max I/Os (worst rebuild) |")
		fmt.Fprintln(w, "|-----------|----------------|----------|---------------------------|")
		run := func(name string, mk func(st *pager.Store) func(geom.Segment) error, segs []geom.Segment) {
			st := newStore(benchB)
			insert := mk(st)
			costs := make([]int64, 0, len(segs))
			prev := st.Stats().IOs()
			for _, s := range segs {
				if err := insert(s); err != nil {
					panic(err)
				}
				now := st.Stats().IOs()
				costs = append(costs, now-prev)
				prev = now
			}
			total := int64(0)
			maxC := int64(0)
			for _, c := range costs {
				total += c
				if c > maxC {
					maxC = c
				}
			}
			sorted := append([]int64{}, costs...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			p99 := sorted[len(sorted)*99/100]
			fmt.Fprintf(w, "| %s | %.1f | %d | %d |\n", name,
				float64(total)/float64(len(costs)), p99, maxC)
		}
		segs := workload.Layers(rng, n/100, 100, float64(n))
		run("solution 1", func(st *pager.Store) func(geom.Segment) error {
			ix, err := sol1.Build(st, sol1.Config{B: benchB}, nil)
			if err != nil {
				panic(err)
			}
			return ix.Insert
		}, segs)
		segs2 := workload.Levels(rng, n, float64(n), 1.3)
		run("solution 2", func(st *pager.Store) func(geom.Segment) error {
			ix, err := sol2.Build(st, sol2.Config{B: benchB}, nil)
			if err != nil {
				panic(err)
			}
			return ix.Insert
		}, segs2)
	})
}
