package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/dbmsx"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/mapred"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/wrap"
)

// Fig2 reproduces the PageRank convergence behaviour: per-iteration count
// (and share) of non-converged vertices, plus the distribution of the
// iteration at which vertices converge.
func Fig2(w io.Writer, sc Scale) error {
	g := datagenDBPedia(sc)
	prof := algos.PageRankConvergence(g, sc.Epsilon, 60)
	rep := &Report{
		Title:   "Fig 2: PageRank convergence behavior (DBPedia-like)",
		Headers: []string{"iter", "non-converged", "pct"},
	}
	for i, n := range prof.NonConverged {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f%%", 100*float64(n)/float64(g.NumVertices)),
		})
	}
	rep.Print(w)

	hist := map[int]int{}
	maxIt := 0
	for _, it := range prof.LastChange {
		hist[it]++
		if it > maxIt {
			maxIt = it
		}
	}
	rep2 := &Report{
		Title:   "Fig 2(a): iterations needed per page (histogram)",
		Headers: []string{"converged at iter", "pages"},
	}
	for it := 0; it <= maxIt; it++ {
		rep2.Rows = append(rep2.Rows, []string{fmt.Sprintf("%d", it), fmt.Sprintf("%d", hist[it])})
	}
	rep2.Print(w)
	return nil
}

// Fig3 reproduces the "types of recursive data" table with measured set
// sizes: immutable set, mutable set, and the Δᵢ series actually observed.
func Fig3(w io.Writer, sc Scale) error {
	g := datagenDBPedia(sc)
	rep := &Report{
		Title:   "Fig 3: immutable / mutable / Δi sets (measured)",
		Headers: []string{"algorithm", "immutable set", "mutable set", "Δi per iteration"},
	}

	prRes, _, err := runRexPageRank(g, sc.Nodes, algos.PageRankConfig{Epsilon: sc.Epsilon, Delta: true, MaxIterations: 60}, exec.Options{})
	if err != nil {
		return err
	}
	rep.Rows = append(rep.Rows, []string{"PageRank",
		fmt.Sprintf("%d graph edges", len(g.Edges)),
		fmt.Sprintf("%d PageRank values", g.NumVertices),
		deltaSeries(prRes)})

	spRes, _, err := runRexSSSP(g, sc.Nodes, algos.SSSPConfig{Source: 0, Delta: true, MaxIterations: 300}, exec.Options{})
	if err != nil {
		return err
	}
	rep.Rows = append(rep.Rows, []string{"Shortest path",
		fmt.Sprintf("%d graph edges", len(g.Edges)),
		fmt.Sprintf("%d distances", len(spRes.Tuples)),
		deltaSeries(spRes)})

	points := datagenGeo(sc, 1)
	kmRes, err := runRexKMeans(points, sc.Nodes, 8, 100)
	if err != nil {
		return err
	}
	rep.Rows = append(rep.Rows, []string{"K-means",
		fmt.Sprintf("%d coordinates", len(points)),
		"assignment of points to centroids",
		deltaSeries(kmRes)})
	rep.Print(w)
	return nil
}

func deltaSeries(res *exec.Result) string {
	parts := make([]string, 0, len(res.Strata))
	for _, s := range res.Strata {
		parts = append(parts, fmt.Sprintf("%d", s.NewTuples))
	}
	if len(parts) > 14 {
		parts = append(parts[:14], "...")
	}
	return "[" + joinComma(parts) + "]"
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}

// Fig4 reproduces the simple-aggregation comparison:
// SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1
// as REX built-in, REX UDF, REX wrap, and Hadoop.
func Fig4(w io.Writer, sc Scale) error {
	rows := datagenLineItems(sc)
	rep := &Report{
		Title:   "Fig 4: standard aggregation (TPC-H)",
		Headers: []string{"strategy", "runtime ms", "sum(tax)", "count"},
	}

	run := func(name string, useUDF bool) error {
		cat := graphCatalog()
		eng := exec.NewEngine(sc.Nodes, 32, 2, cat)
		if err := eng.Load("lineitem", 0, rows); err != nil {
			return err
		}
		p := exec.NewPlanSpec()
		scan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "lineitem"})
		var pred expr.Expr = expr.NewCmp(expr.OpGt, expr.NewCol(1, types.KindInt, "linenumber"), expr.NewConst(int64(1)))
		taxExpr := expr.Expr(expr.NewCol(5, types.KindFloat, "tax"))
		var argKinds [][]types.Kind
		if useUDF {
			// Boxed user-defined predicate and accessor with per-batch
			// reflection-style typechecking — the §6.1 UDF overhead.
			pred = expr.NewCall("lnGt1", func(args []types.Value) (types.Value, error) {
				n, _ := types.AsInt(args[0])
				return n > 1, nil
			}, types.KindBool, false, expr.NewCol(1, types.KindInt, "linenumber"))
			taxExpr = expr.NewCall("taxOf", func(args []types.Value) (types.Value, error) {
				f, _ := types.AsFloat(args[0])
				return f, nil
			}, types.KindFloat, false, expr.NewCol(5, types.KindFloat, "tax"))
			argKinds = [][]types.Kind{{types.KindInt}, {types.KindFloat}}
		}
		filter := p.Add(&exec.OpSpec{Kind: exec.OpFilter, Inputs: []int{scan.ID}, Pred: pred})
		proj := p.Add(&exec.OpSpec{
			Kind: exec.OpProject, Inputs: []int{filter.ID},
			Exprs:       []expr.Expr{expr.NewConst(int64(0)), taxExpr},
			UDFArgKinds: argKinds,
		})
		pre := p.Add(&exec.OpSpec{
			Kind: exec.OpPreAgg, Inputs: []int{proj.ID}, GroupKey: []int{0},
			Aggs: []exec.AggSpec{
				{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "tax")}},
				{Fn: "count"},
			},
		})
		rehash := p.Add(&exec.OpSpec{Kind: exec.OpRehash, Inputs: []int{pre.ID}, HashKey: []int{0}})
		gby := p.Add(&exec.OpSpec{
			Kind: exec.OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0},
			Aggs: []exec.AggSpec{
				{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "tax")}},
				{Fn: "count", Args: []expr.Expr{expr.NewCol(2, types.KindInt, "n")}},
			},
		})
		p.RootID = gby.ID
		start := time.Now()
		res, err := eng.Run(p, exec.Options{})
		if err != nil {
			return err
		}
		sum, _ := types.AsFloat(res.Tuples[0][1])
		cnt, _ := types.AsInt(res.Tuples[0][2])
		rep.Rows = append(rep.Rows, []string{name, ms(time.Since(start)),
			fmt.Sprintf("%.2f", sum), fmt.Sprintf("%d", cnt)})
		return nil
	}
	if err := run("REX built-in", false); err != nil {
		return err
	}
	if err := run("REX UDF", true); err != nil {
		return err
	}

	// REX wrap: the Hadoop job's classes executed inside REX (§4.4).
	if err := fig4Wrap(rep, sc, rows); err != nil {
		return err
	}
	// Native Hadoop.
	if err := fig4Hadoop(rep, sc, rows); err != nil {
		return err
	}
	rep.Print(w)
	return nil
}

func fig4Job() *mapred.Job {
	return &mapred.Job{
		Name: "tpchagg",
		Mapper: mapred.MapperFunc(func(k, v types.Value, emit func(k, v types.Value)) error {
			// value: "linenumber|tax"
			s, _ := v.(string)
			var ln int64
			var tax float64
			fmt.Sscanf(s, "%d|%g", &ln, &tax)
			if ln > 1 {
				emit(int64(0), fmt.Sprintf("%g|1", tax))
			}
			return nil
		}),
		Combiner: fig4Reducer(),
		Reducer:  fig4Reducer(),
	}
}

func fig4Reducer() mapred.Reducer {
	return mapred.ReducerFunc(func(k types.Value, vs []types.Value, emit func(k, v types.Value)) error {
		var sum float64
		var n int64
		for _, v := range vs {
			var t float64
			var c int64
			fmt.Sscanf(v.(string), "%g|%d", &t, &c)
			sum += t
			n += c
		}
		emit(k, fmt.Sprintf("%g|%d", sum, n))
		return nil
	})
}

func lineItemKVs(rows []types.Tuple) []mapred.KV {
	kvs := make([]mapred.KV, len(rows))
	for i, r := range rows {
		ln, _ := types.AsInt(r[1])
		tax, _ := types.AsFloat(r[5])
		kvs[i] = mapred.KV{K: r[0], V: fmt.Sprintf("%d|%g", ln, tax)}
	}
	return kvs
}

func fig4Wrap(rep *Report, sc Scale, rows []types.Tuple) error {
	cat := graphCatalog()
	job := fig4Job()
	if err := wrap.RegisterMapWrap(cat, "f4map", job.Mapper); err != nil {
		return err
	}
	if err := wrap.RegisterReduceWrap(cat, "f4red", job.Reducer); err != nil {
		return err
	}
	eng := exec.NewEngine(sc.Nodes, 32, 2, cat)
	if err := eng.Load("mrstate", 0, wrap.StateTuples(lineItemKVs(rows))); err != nil {
		return err
	}
	p := exec.NewPlanSpec()
	scan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "mrstate"})
	mw := p.Add(&exec.OpSpec{Kind: exec.OpTVF, Inputs: []int{scan.ID}, TVFName: "f4map"})
	rehash := p.Add(&exec.OpSpec{Kind: exec.OpRehash, Inputs: []int{mw.ID}, HashKey: []int{0}})
	rw := p.Add(&exec.OpSpec{Kind: exec.OpGroupBy, Inputs: []int{rehash.ID}, GroupKey: []int{0}, UDAName: "f4red"})
	p.RootID = rw.ID
	start := time.Now()
	res, err := eng.Run(p, exec.Options{})
	if err != nil {
		return err
	}
	var sum float64
	var n int64
	if len(res.Tuples) > 0 {
		fmt.Sscanf(res.Tuples[0][1].(string), "%g|%d", &sum, &n)
	}
	rep.Rows = append(rep.Rows, []string{"REX wrap", ms(time.Since(start)),
		fmt.Sprintf("%.2f", sum), fmt.Sprintf("%d", n)})
	return nil
}

func fig4Hadoop(rep *Report, sc Scale, rows []types.Tuple) error {
	eng, _ := mrEngine(sc)
	start := time.Now()
	out, err := eng.Run(fig4Job(), lineItemKVs(rows))
	if err != nil {
		return err
	}
	var sum float64
	var n int64
	if len(out) > 0 {
		fmt.Sscanf(out[0].V.(string), "%g|%d", &sum, &n)
	}
	rep.Rows = append(rep.Rows, []string{"Hadoop", ms(time.Since(start)),
		fmt.Sprintf("%.2f", sum), fmt.Sprintf("%d", n)})
	return nil
}

// Fig5 reproduces the K-means scalability sweep: REX Δ vs Hadoop LB over
// growing point counts.
func Fig5(w io.Writer, sc Scale) error {
	rep := &Report{
		Title:   "Fig 5: K-means scalability (runtime ms, to convergence)",
		Headers: []string{"points", "Hadoop LB", "REX Δ", "speedup"},
	}
	for _, enlarge := range []int{1, 10, 100} {
		points := datagenGeo(sc, enlarge)
		eng, _ := mrEngine(sc)
		hStart := time.Now()
		if _, err := algos.HadoopKMeans(eng, points, 8, 100); err != nil {
			return err
		}
		hDur := time.Since(hStart)

		rStart := time.Now()
		if _, err := runRexKMeans(points, sc.Nodes, 8, 100); err != nil {
			return err
		}
		rDur := time.Since(rStart)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", len(points)), ms(hDur), ms(rDur),
			fmt.Sprintf("%.1fx", float64(hDur)/float64(rDur)),
		})
	}
	rep.Print(w)
	return nil
}

func runRexKMeans(points []types.Tuple, nodes, k, maxIters int) (*exec.Result, error) {
	cat := graphCatalog()
	cfg := algos.KMeansConfig{K: k, MaxIterations: maxIters}
	jn, wn, err := algos.RegisterKMeans(cat, cfg)
	if err != nil {
		return nil, err
	}
	eng := exec.NewEngine(nodes, 32, 2, cat)
	if err := eng.Load("points", 0, points); err != nil {
		return nil, err
	}
	if err := eng.Load("kmseed", 0, algos.KMeansSeed(points, k)); err != nil {
		return nil, err
	}
	return eng.Run(algos.KMeansPlan(cfg, jn, wn), exec.Options{})
}

// recursiveComparison runs the five-strategy comparison of Figs. 6 and 7.
func recursiveComparison(w io.Writer, sc Scale, title string, g *datagen.Graph, pagerank bool, iters int, strategies []string) error {
	series := map[string][]time.Duration{}

	for _, s := range strategies {
		var per []time.Duration
		switch s {
		case "Hadoop LB":
			eng, _ := mrEngine(sc)
			var res *algos.MRResult
			var err error
			if pagerank {
				res, err = algos.HadoopPageRank(eng, g, iters)
			} else {
				res, err = algos.HadoopSSSP(eng, g, 0, iters)
			}
			if err != nil {
				return err
			}
			per = res.PerIter
		case "HaLoop LB":
			eng, _ := mrEngine(sc)
			hl := mapred.NewHaLoopEngine(eng)
			var res *algos.MRResult
			var err error
			if pagerank {
				res, err = algos.HaLoopPageRank(hl, g, iters)
			} else {
				res, err = algos.HaLoopSSSP(hl, g, 0, iters)
			}
			if err != nil {
				return err
			}
			per = res.PerIter
		case "REX wrap":
			if !pagerank {
				continue
			}
			cat := graphCatalog()
			plan, err := wrap.IterativeJobPlan(cat, algos.PageRankMRJob(), "mrstate", iters+1)
			if err != nil {
				return err
			}
			eng := exec.NewEngine(sc.Nodes, 32, 2, cat)
			if err := eng.Load("mrstate", 0, wrap.StateTuples(algos.PageRankMRState(g))); err != nil {
				return err
			}
			res, err := eng.Run(plan, exec.Options{})
			if err != nil {
				return err
			}
			per = strataDurations(res)
		case "REX noΔ":
			var res *exec.Result
			var err error
			if pagerank {
				res, _, err = runRexPageRank(g, sc.Nodes, algos.PageRankConfig{Epsilon: sc.Epsilon, Delta: false, MaxIterations: iters + 1}, exec.Options{})
			} else {
				res, _, err = runRexSSSP(g, sc.Nodes, algos.SSSPConfig{Source: 0, Delta: false, MaxIterations: iters + 1}, exec.Options{})
			}
			if err != nil {
				return err
			}
			per = strataDurations(res)
		case "REX Δ":
			var res *exec.Result
			var err error
			if pagerank {
				res, _, err = runRexPageRank(g, sc.Nodes, algos.PageRankConfig{Epsilon: sc.Epsilon, Delta: true, MaxIterations: 300}, exec.Options{})
			} else {
				// REX delta runs to the true fixpoint (§6.3 "Improved
				// Accuracy": 75 iterations vs everyone else's 6).
				res, _, err = runRexSSSP(g, sc.Nodes, algos.SSSPConfig{Source: 0, Delta: true, MaxIterations: 500}, exec.Options{})
			}
			if err != nil {
				return err
			}
			per = strataDurations(res)
		}
		series[s] = per
	}

	maxIter := 0
	for _, s := range series {
		if len(s) > maxIter {
			maxIter = len(s)
		}
	}
	perRows, headers := padSeries(maxIter, series, strategies)
	rep := &Report{Title: title + " — per-iteration runtime (ms)", Headers: headers, Rows: perRows}
	rep.Print(w)

	cumSeries := map[string][]time.Duration{}
	for k, v := range series {
		cumSeries[k] = cum(v)
	}
	cumRows, _ := padSeries(maxIter, cumSeries, strategies)
	rep2 := &Report{Title: title + " — cumulative runtime (ms)", Headers: headers, Rows: cumRows}
	rep2.Print(w)
	return nil
}

// Fig6 compares PageRank on the DBPedia-like graph across all five
// strategies.
func Fig6(w io.Writer, sc Scale) error {
	return recursiveComparison(w, sc, "Fig 6: PageRank (DBPedia)", datagenDBPedia(sc), true, 25,
		[]string{"Hadoop LB", "HaLoop LB", "REX wrap", "REX noΔ", "REX Δ"})
}

// Fig7 compares shortest path on the DBPedia-like graph.
func Fig7(w io.Writer, sc Scale) error {
	return recursiveComparison(w, sc, "Fig 7: shortest path (DBPedia)", datagenDBPedia(sc), false, 6,
		[]string{"Hadoop LB", "HaLoop LB", "REX noΔ", "REX Δ"})
}

// Fig8 compares PageRank on the larger Twitter-like graph (three best
// strategies, like the paper).
// Fig8 compares PageRank on the larger Twitter-like graph (three best
// strategies, like the paper).
func Fig8(w io.Writer, sc Scale) error {
	return recursiveComparison(w, sc, "Fig 8: PageRank (Twitter)", datagenTwitter(sc), true, 25,
		[]string{"Hadoop LB", "HaLoop LB", "REX Δ"})
}

// Fig9 compares shortest path on the Twitter-like graph.
func Fig9(w io.Writer, sc Scale) error {
	return recursiveComparison(w, sc, "Fig 9: shortest path (Twitter)", datagenTwitter(sc), false, 10,
		[]string{"Hadoop LB", "HaLoop LB", "REX Δ"})
}

// Fig10 measures REX scalability over cluster sizes plus the single-node
// DBMS X comparison (§6.4).
func Fig10(w io.Writer, sc Scale) error {
	g := datagenDBPedia(sc)
	iters := 20
	rep := &Report{
		Title:   "Fig 10(a): PageRank scalability vs cluster size",
		Headers: []string{"nodes", "runtime ms", "speedup vs 1 node"},
		Notes:   fmt.Sprintf("simulated cluster on a %d-core host: speedup is capped at the physical core count", runtime.NumCPU()),
	}
	var base time.Duration
	for _, n := range []int{1, 3, 9, 28} {
		res, _, err := runRexPageRank(g, n, algos.PageRankConfig{Epsilon: sc.Epsilon, Delta: true, MaxIterations: iters}, exec.Options{})
		if err != nil {
			return err
		}
		if n == 1 {
			base = res.Duration
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", n), ms(res.Duration),
			fmt.Sprintf("%.2fx", float64(base)/float64(res.Duration)),
		})
	}
	// DBMS X: single machine, recursive SQL, accumulating state.
	dres, err := dbmsx.New().PageRank(g, iters)
	if err != nil {
		return err
	}
	rep.Rows = append(rep.Rows, []string{"DBMS X (1 node)", ms(dres.Duration),
		fmt.Sprintf("accumulated %d rows", dres.PeakRows)})
	rep.Print(w)
	return nil
}

// Fig11 measures average per-node bandwidth for the Twitter experiments.
// REX rows report measured wire bytes (encoded frame volume on the
// simulated link) of recursive plans, whose shuffle edges fold; the fold
// column is the shuffle's delta-count ratio out/in.
func Fig11(w io.Writer, sc Scale) error {
	g := datagenTwitter(sc)
	rep := &Report{
		Title:   "Fig 11: average bandwidth per node (Twitter)",
		Notes:   "iteration counts matched across strategies; REX bytes are measured wire frames, not estimates",
		Headers: []string{"workload", "strategy", "wire bytes", "KB/iter per node", "KB/s per node", "fold"},
	}
	add := func(workload, strategy string, bytes int64, iters int, dur time.Duration, nodes int, fold string) {
		rate := float64(bytes) / 1024 / dur.Seconds() / float64(nodes)
		perIter := float64(bytes) / 1024 / float64(max(1, iters)) / float64(nodes)
		rep.Rows = append(rep.Rows, []string{workload, strategy,
			fmt.Sprintf("%d", bytes), fmt.Sprintf("%.1f", perIter), fmt.Sprintf("%.1f", rate), fold})
	}

	for _, workload := range []string{"shortest-path", "pagerank"} {
		pagerank := workload == "pagerank"
		var res *exec.Result
		var err error
		if pagerank {
			res, _, err = runRexPageRank(g, sc.Nodes, algos.PageRankConfig{Epsilon: sc.Epsilon, Delta: true, MaxIterations: 26}, exec.Options{})
		} else {
			res, _, err = runRexSSSP(g, sc.Nodes, algos.SSSPConfig{Source: 0, Delta: true, MaxIterations: 11}, exec.Options{})
		}
		if err != nil {
			return err
		}
		add(workload, "REX Δ", res.BytesSent, len(res.Strata), res.Duration, sc.Nodes, foldRatio(res))

		for _, strat := range []string{"HaLoop LB", "Hadoop LB"} {
			meng, metrics := mrEngine(sc)
			start := time.Now()
			if strat == "HaLoop LB" {
				hl := mapred.NewHaLoopEngine(meng)
				if pagerank {
					_, err = algos.HaLoopPageRank(hl, g, 25)
				} else {
					_, err = algos.HaLoopSSSP(hl, g, 0, 10)
				}
			} else {
				if pagerank {
					_, err = algos.HadoopPageRank(meng, g, 25)
				} else {
					_, err = algos.HadoopSSSP(meng, g, 0, 10)
				}
			}
			if err != nil {
				return err
			}
			_, _, bytes := metrics.Snapshot()
			iters := 25
			if !pagerank {
				iters = 10
			}
			add(workload, strat, bytes, iters, time.Since(start), sc.Workers, "-")
		}
	}
	rep.Print(w)
	return nil
}

// foldRatio renders the shuffle's out/in delta ratio.
func foldRatio(res *exec.Result) string {
	if res.CompactIn == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f (%d→%d Δs)",
		float64(res.CompactOut)/float64(res.CompactIn), res.CompactIn, res.CompactOut)
}

// Fig12 measures recovery: shortest path with a node failure injected at
// iteration k, comparing restart vs incremental recovery vs no failure.
func Fig12(w io.Writer, sc Scale) error {
	g := datagenDBPedia(sc)
	rep := &Report{
		Title:   "Fig 12: recovery (shortest path, DBPedia), runtime ms",
		Headers: []string{"failure at iter", "restart", "incremental", "no failure"},
	}
	cfg := algos.SSSPConfig{Source: 0, Delta: true, MaxIterations: 500}
	baseline, _, err := runRexSSSP(g, sc.Nodes, cfg, exec.Options{Checkpoint: true})
	if err != nil {
		return err
	}
	totalIters := len(baseline.Strata)
	for k := 1; k < totalIters; k += max(1, totalIters/8) {
		row := []string{fmt.Sprintf("%d", k)}
		for _, strat := range []exec.RecoveryStrategy{exec.RecoveryRestart, exec.RecoveryIncremental} {
			killAt := k
			var once bool
			var engRef *exec.Engine
			opts := exec.Options{
				Recovery:   strat,
				Checkpoint: true,
				OnStratum: func(stratum, n int) {
					if stratum == killAt && !once {
						once = true
						engRef.Transport.Kill(1)
					}
				},
			}
			cat := graphCatalog()
			jn, wn, err := algos.RegisterSSSP(cat, cfg)
			if err != nil {
				return err
			}
			eng := exec.NewEngine(sc.Nodes, 32, 3, cat)
			engRef = eng
			if err := eng.Load("graph", 0, g.Edges); err != nil {
				return err
			}
			if err := eng.Load("spseed", 0, algos.SSSPSeed(cfg)); err != nil {
				return err
			}
			res, err := eng.Run(algos.SSSPPlan(cfg, jn, wn), opts)
			if err != nil {
				return err
			}
			if len(res.Tuples) != len(baseline.Tuples) {
				return fmt.Errorf("bench: recovery produced %d results, want %d", len(res.Tuples), len(baseline.Tuples))
			}
			row = append(row, ms(res.Duration))
		}
		row = append(row, ms(baseline.Duration))
		rep.Rows = append(rep.Rows, row)
	}
	rep.Print(w)
	return nil
}
