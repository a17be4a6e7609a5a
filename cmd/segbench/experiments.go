package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"segdb"
	"segdb/internal/bpst"
	"segdb/internal/geom"
	"segdb/internal/multislab"
	"segdb/internal/pager"
	"segdb/internal/pst"
	"segdb/internal/sol1"
	"segdb/internal/sol2"
	"segdb/internal/workload"
)

// Common parameters. B is the block capacity in segments used throughout
// except for the B-sweep (E13).
const (
	benchB     = 32
	benchProbe = 300 // queries per measurement
)

func pageSize(b int) int { return 64 + 48*b }

func newStore(b int) *pager.Store { return pager.MustOpenMem(pageSize(b), 0) }

func logB(n float64, base float64) float64 { return math.Log(n) / math.Log(base) }

// avgReads runs queries against fn with a cold cache and returns the
// average physical reads per query and the average output size T.
func avgReads(st *pager.Store, queries []geom.VQuery, fn func(geom.VQuery) (int, error)) (reads float64, avgT float64) {
	st.DropCache()
	st.ResetStats()
	totalT := 0
	for _, q := range queries {
		t, err := fn(q)
		if err != nil {
			panic(err)
		}
		totalT += t
	}
	return float64(st.Stats().Reads) / float64(len(queries)),
		float64(totalT) / float64(len(queries))
}

// runSol2Query measures Solution 2 query cost on the long-heavy workload
// with fractional cascading on or off (experiments E7 and E6).
func runSol2Query(w io.Writer, seed int64, bridges bool) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Fprintln(w, "| N | reads/query | avg T | jumps/query | fallbacks/query | log_B n·(log_B n+log2 B) |")
	fmt.Fprintln(w, "|---|-------------|-------|-------------|-----------------|----------------------------|")
	for _, n := range []int{8000, 32000, 128000} {
		segs := workload.WideLevels(rng, n, float64(n)/10)
		box := workload.BBox(segs)
		queries := workload.RandomVS(rng, benchProbe, box, 20)
		st := newStore(benchB)
		ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
		if err != nil {
			panic(err)
		}
		ix.UseBridges = bridges
		st.DropCache()
		st.ResetStats()
		totT, jumps, falls := 0, 0, 0
		for _, q := range queries {
			s, err := ix.Query(q, func(geom.Segment) {})
			if err != nil {
				panic(err)
			}
			totT += s.Reported
			jumps += s.G.BridgeJumps
			falls += s.G.Fallbacks
		}
		reads := float64(st.Stats().Reads) / float64(len(queries))
		nb := float64(n) / benchB
		bound := logB(nb, benchB) * (logB(nb, benchB) + math.Log2(benchB))
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.2f | %.1f |\n",
			n, reads, float64(totT)/float64(len(queries)),
			float64(jumps)/float64(len(queries)), float64(falls)/float64(len(queries)), bound)
	}
}

func init() {
	register("E1", "Lemma 2(ii): binary PST query cost scales with log2(n) + t", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N | n=N/B | reads/query | avg T | log2 n | reads/log2 n |")
		fmt.Fprintln(w, "|---|-------|-------------|-------|--------|--------------|")
		for _, n := range []int{4096, 16384, 65536, 262144} {
			segs := workload.FanVertical(rng, n, 0, geom.SideRight, 100, float64(n))
			st := newStore(benchB)
			tr, err := pst.Build(st, 0, geom.SideRight, benchB, segs)
			if err != nil {
				panic(err)
			}
			queries := make([]geom.VQuery, benchProbe)
			for i := range queries {
				x := rng.Float64() * 90
				y := rng.Float64() * float64(n)
				queries[i] = geom.VSeg(x, y, y+20)
			}
			reads, avgT := avgReads(st, queries, func(q geom.VQuery) (int, error) {
				s, err := tr.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			nb := float64(n) / benchB
			fmt.Fprintf(w, "| %d | %.0f | %.1f | %.1f | %.1f | %.2f |\n",
				n, nb, reads, avgT, math.Log2(nb), reads/math.Log2(nb))
		}
	})

	register("E2", "Lemma 3(ii) substitute: accelerated PST query cost scales with log_B(n) + t", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N | n=N/B | reads/query | avg T | log_f n | log2 n (E1 slope) |")
		fmt.Fprintln(w, "|---|-------|-------------|-------|---------|--------------------|")
		f, b := bpst.Shape(pageSize(benchB))
		for _, n := range []int{4096, 16384, 65536, 262144} {
			segs := workload.FanVertical(rng, n, 0, geom.SideRight, 100, float64(n))
			st := newStore(benchB)
			tr, err := bpst.Build(st, 0, geom.SideRight, segs)
			if err != nil {
				panic(err)
			}
			queries := make([]geom.VQuery, benchProbe)
			for i := range queries {
				x := rng.Float64() * 90
				y := rng.Float64() * float64(n)
				queries[i] = geom.VSeg(x, y, y+20)
			}
			reads, avgT := avgReads(st, queries, func(q geom.VQuery) (int, error) {
				s, err := tr.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			nb := float64(n) / float64(b)
			fmt.Fprintf(w, "| %d | %.0f | %.1f | %.1f | %.1f | %.1f |\n",
				n, nb, reads, avgT, logB(nb, float64(f)), math.Log2(nb))
		}
	})

	register("E3", "Lemmas 2(i)/3(i): PST space is linear (pages per segment constant in n)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N | binary PST pages | pages/N | accelerated pages | pages/N |")
		fmt.Fprintln(w, "|---|------------------|---------|-------------------|---------|")
		for _, n := range []int{8192, 32768, 131072} {
			segs := workload.FanVertical(rng, n, 0, geom.SideRight, 100, float64(n))
			st1 := newStore(benchB)
			if _, err := pst.Build(st1, 0, geom.SideRight, benchB, segs); err != nil {
				panic(err)
			}
			st2 := newStore(benchB)
			if _, err := bpst.Build(st2, 0, geom.SideRight, segs); err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "| %d | %d | %.4f | %d | %.4f |\n", n,
				st1.PagesInUse(), float64(st1.PagesInUse())/float64(n),
				st2.PagesInUse(), float64(st2.PagesInUse())/float64(n))
		}
	})

	register("E4", "Theorem 1(ii): Solution 1 query cost vs n (layers workload)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N | reads/query | avg T | log2(n)·log_B(n) | ratio | plain-PST reads (ablation) |")
		fmt.Fprintln(w, "|---|-------------|-------|------------------|-------|----------------------------|")
		for _, n := range []int{4000, 16000, 64000} {
			segs := workload.Layers(rng, n/100, 100, float64(n))
			box := workload.BBox(segs)
			queries := workload.RandomVS(rng, benchProbe, box, 5)

			measure := func(plain bool) (float64, float64) {
				st := newStore(benchB)
				ix, err := sol1.Build(st, sol1.Config{B: benchB, Plain: plain}, segs)
				if err != nil {
					panic(err)
				}
				return avgReads(st, queries, func(q geom.VQuery) (int, error) {
					s, err := ix.Query(q, func(geom.Segment) {})
					return s.Reported, err
				})
			}
			reads, avgT := measure(false)
			plainReads, _ := measure(true)
			nb := float64(len(segs)) / benchB
			bound := math.Log2(nb) * logB(nb, benchB)
			fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.2f | %.1f |\n",
				len(segs), reads, avgT, bound, reads/bound, plainReads)
		}
	})

	register("E5", "Theorem 1(i): Solution 1 space is linear", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N | pages | pages/N |")
		fmt.Fprintln(w, "|---|-------|---------|")
		for _, n := range []int{4000, 16000, 64000} {
			segs := workload.Layers(rng, n/100, 100, float64(n))
			st := newStore(benchB)
			if _, err := sol1.Build(st, sol1.Config{B: benchB}, segs); err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "| %d | %d | %.4f |\n", len(segs), st.PagesInUse(),
				float64(st.PagesInUse())/float64(len(segs)))
		}
	})

	register("E6", "Lemma 4(ii): Solution 2 query cost WITHOUT fractional cascading", func(w io.Writer, seed int64) {
		runSol2Query(w, seed, false)
	})

	register("E7", "Theorem 2(ii): Solution 2 query cost WITH fractional cascading (E6 vs E7 = ablation)", func(w io.Writer, seed int64) {
		runSol2Query(w, seed, true)
	})

	register("E8", "Theorem 2(i): Solution 2 space is O(n·log2 B)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N | pages | pages/N | pages/(n·log2 B) |")
		fmt.Fprintln(w, "|---|-------|---------|-------------------|")
		for _, n := range []int{4000, 16000, 64000} {
			segs := workload.WideLevels(rng, n, float64(n))
			st := newStore(benchB)
			if _, err := sol2.Build(st, sol2.Config{B: benchB}, segs); err != nil {
				panic(err)
			}
			nb := float64(n) / benchB
			fmt.Fprintf(w, "| %d | %d | %.4f | %.3f |\n", n, st.PagesInUse(),
				float64(st.PagesInUse())/float64(n),
				float64(st.PagesInUse())/(nb*math.Log2(benchB)))
		}
	})

	register("E9", "output sensitivity: the +t term (reads grow by ~1 page per B answers)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		const n = 64000
		segs := workload.Layers(rng, n/100, 100, float64(n))
		box := workload.BBox(segs)
		st := newStore(benchB)
		ix, err := sol2.Build(st, sol2.Config{B: benchB}, segs)
		if err != nil {
			panic(err)
		}
		fmt.Fprintln(w, "| query height | avg T | reads/query | (reads-base)/t |")
		fmt.Fprintln(w, "|--------------|-------|-------------|-----------------|")
		base := 0.0
		for i, h := range []float64{0.5, 5, 50, 200, 640} {
			queries := workload.RandomVS(rng, benchProbe, box, 0)
			for j := range queries {
				queries[j].YHi = queries[j].YLo + h
			}
			reads, avgT := avgReads(st, queries, func(q geom.VQuery) (int, error) {
				s, err := ix.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			if i == 0 {
				base = reads
			}
			t := avgT / benchB
			slope := math.NaN()
			if t > 0.5 {
				slope = (reads - base) / t
			}
			fmt.Fprintf(w, "| %g | %.1f | %.1f | %.2f |\n", h, avgT, reads, slope)
		}
	})

	register("E10", "Theorem 1(iii): Solution 1 amortized insert cost", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N inserted | I/Os per insert (amortized) | log2 n |")
		fmt.Fprintln(w, "|------------|------------------------------|--------|")
		for _, n := range []int{4000, 16000, 64000} {
			segs := workload.Layers(rng, n/100, 100, float64(n))
			st := newStore(benchB)
			ix, err := sol1.Build(st, sol1.Config{B: benchB}, nil)
			if err != nil {
				panic(err)
			}
			st.ResetStats()
			for _, s := range segs {
				if err := ix.Insert(s); err != nil {
					panic(err)
				}
			}
			per := float64(st.Stats().IOs()) / float64(len(segs))
			fmt.Fprintf(w, "| %d | %.1f | %.1f |\n", len(segs), per, math.Log2(float64(len(segs))/benchB))
		}
	})

	register("E11", "Theorem 2(iii): Solution 2 amortized insert cost", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| N inserted | I/Os per insert (amortized) | log_B n + log2 B |")
		fmt.Fprintln(w, "|------------|------------------------------|-------------------|")
		for _, n := range []int{4000, 16000, 64000} {
			segs := workload.Levels(rng, n, float64(n), 1.3)
			st := newStore(benchB)
			ix, err := sol2.Build(st, sol2.Config{B: benchB}, nil)
			if err != nil {
				panic(err)
			}
			st.ResetStats()
			for _, s := range segs {
				if err := ix.Insert(s); err != nil {
					panic(err)
				}
			}
			per := float64(st.Stats().IOs()) / float64(len(segs))
			nb := float64(n) / benchB
			fmt.Fprintf(w, "| %d | %.1f | %.1f |\n", n, per, logB(nb, benchB)+math.Log2(benchB))
		}
	})

	register("E12", "VS query vs stab-and-filter: the t vs t_line gap (tall stacks)", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		fmt.Fprintln(w, "| stack height | avg T | avg T_line | sol1 reads | sol2 reads | stab+filter reads | scan reads |")
		fmt.Fprintln(w, "|--------------|-------|------------|------------|------------|--------------------|------------|")
		for _, height := range []int{16, 64, 256, 1024} {
			cols := 16384 / height
			segs := workload.Stacks(cols, height, 20)
			// Short queries inside random columns.
			queries := make([]geom.VQuery, benchProbe)
			for i := range queries {
				col := rng.Intn(cols)
				x := float64(col)*21 + rng.Float64()*20
				y := rng.Float64() * float64(height)
				queries[i] = geom.VSeg(x, y, y+2)
			}

			st1 := newStore(benchB)
			ix1, err := sol1.Build(st1, sol1.Config{B: benchB}, segs)
			if err != nil {
				panic(err)
			}
			r1, avgT := avgReads(st1, queries, func(q geom.VQuery) (int, error) {
				s, err := ix1.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})

			st2 := newStore(benchB)
			ix2, err := sol2.Build(st2, sol2.Config{B: benchB}, segs)
			if err != nil {
				panic(err)
			}
			r2, _ := avgReads(st2, queries, func(q geom.VQuery) (int, error) {
				s, err := ix2.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})

			st3 := segdb.NewMemStore(benchB, 0)
			base, err := segdb.NewStabFilterBaseline(st3, benchB, segs)
			if err != nil {
				panic(err)
			}
			totLine := 0
			st3.DropCache()
			st3.ResetStats()
			for _, q := range queries {
				if _, err := base.Query(q, func(segdb.Segment) {}); err != nil {
					panic(err)
				}
				totLine += base.(interface{ Touched() int }).Touched()
			}
			rBase := float64(st3.Stats().Reads) / float64(len(queries))
			avgLine := float64(totLine) / float64(len(queries))

			st4 := segdb.NewMemStore(benchB, 0)
			sc, err := segdb.NewScanBaseline(st4, segs)
			if err != nil {
				panic(err)
			}
			rScan, _ := avgReads(st4, queries[:20], func(q geom.VQuery) (int, error) {
				s, err := sc.Query(q, func(segdb.Segment) {})
				return s.Reported, err
			})

			fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f |\n",
				height, avgT, avgLine, r1, r2, rBase, rScan)
		}
	})

	register("E13", "block-size sensitivity: query cost vs B at fixed N", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		const n = 32000
		fmt.Fprintln(w, "| B | sol1 reads | sol2 reads | log2(n/B)·log_B(n/B) |")
		fmt.Fprintln(w, "|---|------------|------------|------------------------|")
		for _, b := range []int{8, 16, 32, 64, 128} {
			segs := workload.Layers(rng, n/100, 100, float64(n))
			box := workload.BBox(segs)
			queries := workload.RandomVS(rng, benchProbe, box, 5)

			st1 := newStore(b)
			ix1, err := sol1.Build(st1, sol1.Config{B: b}, segs)
			if err != nil {
				panic(err)
			}
			r1, _ := avgReads(st1, queries, func(q geom.VQuery) (int, error) {
				s, err := ix1.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})

			st2 := newStore(b)
			ix2, err := sol2.Build(st2, sol2.Config{B: b}, segs)
			if err != nil {
				panic(err)
			}
			r2, _ := avgReads(st2, queries, func(q geom.VQuery) (int, error) {
				s, err := ix2.Query(q, func(geom.Segment) {})
				return s.Reported, err
			})
			nb := float64(len(segs)) / float64(b)
			fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f |\n", b, r1, r2, math.Log2(nb)*logB(nb, float64(b)))
		}
	})

	register("E14", "Figure 7 / d-property: bridge spacing sweep on one G structure", func(w io.Writer, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		bds := make([]float64, 16)
		for i := range bds {
			bds[i] = float64(i+1) * 10
		}
		frags := make([]multislab.Frag, 20000)
		for k := range frags {
			i := 1 + rng.Intn(15)
			j := i + 1 + rng.Intn(16-i)
			y := float64(k)
			frags[k] = multislab.Frag{
				Seg: geom.Seg(uint64(k+1), bds[i-1]-rng.Float64()*5, y, bds[j-1]+rng.Float64()*5, y),
				I:   i, J: j,
			}
		}
		queries := make([]geom.VQuery, benchProbe)
		for i := range queries {
			x := 10 + rng.Float64()*150
			y := rng.Float64() * 20000
			queries[i] = geom.VSeg(x, y, y+20)
		}
		fmt.Fprintln(w, "| d | reads/query (bridges) | reads/query (no bridges) | jumps/query | fallbacks/query | pages |")
		fmt.Fprintln(w, "|---|------------------------|---------------------------|-------------|-----------------|-------|")
		for _, d := range []int{2, 4, 8, 16} {
			st := newStore(benchB)
			g, err := multislab.BuildG(st, bds, d, frags)
			if err != nil {
				panic(err)
			}
			run := func(bridges bool) (float64, float64, float64) {
				st.DropCache()
				st.ResetStats()
				jumps, falls := 0, 0
				for _, q := range queries {
					s, err := g.Query(q, bridges, func(geom.Segment) {})
					if err != nil {
						panic(err)
					}
					jumps += s.BridgeJumps
					falls += s.Fallbacks
				}
				return float64(st.Stats().Reads) / float64(len(queries)),
					float64(jumps) / float64(len(queries)),
					float64(falls) / float64(len(queries))
			}
			rOn, j, f := run(true)
			rOff, _, _ := run(false)
			fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.2f | %d |\n", d, rOn, rOff, j, f, st.PagesInUse())
		}
	})
}
