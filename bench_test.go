package rex

// One testing.B benchmark per paper table/figure (run the full experiment
// harness with cmd/rexbench for the paper-style series), plus ablation
// benches for the design choices DESIGN.md calls out.

import (
	"io"
	"testing"
	"time"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/bench"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// benchScale is small enough for -bench=. to finish in minutes.
func benchScale() bench.Scale {
	return bench.Scale{
		Nodes: 4, Workers: 4,
		DBPediaVertices: 600, TwitterVertices: 800,
		GeoBasePoints: 150, LineItemRows: 5000,
		HadoopStartup: time.Millisecond, Epsilon: 0.001,
	}
}

func benchFigure(b *testing.B, fn func(w io.Writer, sc bench.Scale) error) {
	b.Helper()
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Convergence(b *testing.B)         { benchFigure(b, bench.Fig2) }
func BenchmarkFig3DeltaSets(b *testing.B)           { benchFigure(b, bench.Fig3) }
func BenchmarkFig4Aggregation(b *testing.B)         { benchFigure(b, bench.Fig4) }
func BenchmarkFig5KMeans(b *testing.B)              { benchFigure(b, bench.Fig5) }
func BenchmarkFig6PageRankDBPedia(b *testing.B)     { benchFigure(b, bench.Fig6) }
func BenchmarkFig7ShortestPathDBPedia(b *testing.B) { benchFigure(b, bench.Fig7) }
func BenchmarkFig8PageRankTwitter(b *testing.B)     { benchFigure(b, bench.Fig8) }
func BenchmarkFig9ShortestPathTwitter(b *testing.B) { benchFigure(b, bench.Fig9) }
func BenchmarkFig10Scalability(b *testing.B)        { benchFigure(b, bench.Fig10) }
func BenchmarkFig11Bandwidth(b *testing.B)          { benchFigure(b, bench.Fig11) }
func BenchmarkFig12Recovery(b *testing.B)           { benchFigure(b, bench.Fig12) }

// --- ablations ---------------------------------------------------------

func pagerankCluster(b *testing.B, g *datagen.Graph, delta bool) (*catalog.Catalog, *exec.Engine, *exec.PlanSpec) {
	b.Helper()
	cat := catalog.New()
	if err := cat.AddTable(&catalog.Table{
		Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0,
	}); err != nil {
		b.Fatal(err)
	}
	cfg := algos.PageRankConfig{Epsilon: 0.001, Delta: delta, MaxIterations: 25}
	jn, wn, err := algos.RegisterPageRank(cat, cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := exec.NewEngine(4, 32, 3, cat)
	if err := eng.Load("graph", 0, g.Edges); err != nil {
		b.Fatal(err)
	}
	return cat, eng, algos.PageRankPlan(cfg, jn, wn)
}

// BenchmarkAblationDelta is the headline ablation: delta vs no-delta
// iteration on the same engine and data.
func BenchmarkAblationDelta(b *testing.B) {
	g := datagen.DBPediaGraph(800, 1)
	for _, mode := range []struct {
		name  string
		delta bool
	}{{"delta", true}, {"nodelta", false}} {
		b.Run(mode.name, func(b *testing.B) {
			_, eng, plan := pagerankCluster(b, g, mode.delta)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(plan, exec.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBatchSize varies the transport batching granularity.
func BenchmarkAblationBatchSize(b *testing.B) {
	g := datagen.DBPediaGraph(800, 1)
	for _, size := range []int{16, 256, 4096} {
		b.Run(types.AsString(int64(size)), func(b *testing.B) {
			_, eng, plan := pagerankCluster(b, g, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(plan, exec.Options{BatchSize: size}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCheckpoint measures the incremental-checkpoint overhead
// during failure-free execution.
func BenchmarkAblationCheckpoint(b *testing.B) {
	g := datagen.DBPediaGraph(800, 1)
	for _, ck := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(ck.name, func(b *testing.B) {
			_, eng, plan := pagerankCluster(b, g, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(plan, exec.Options{Checkpoint: ck.on}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRing varies virtual-node counts (partition balance vs
// ring lookup cost).
func BenchmarkAblationRing(b *testing.B) {
	for _, vnodes := range []int{4, 64, 512} {
		b.Run(types.AsString(int64(vnodes)), func(b *testing.B) {
			ring := cluster.NewRing(8, vnodes, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ring.Owners(types.HashValue(int64(i)))
			}
		})
	}
}

// BenchmarkCodec measures the wire codec (every cross-node byte passes
// through it): a row batch encoded to a delta payload and decoded back to
// rows.
func BenchmarkCodec(b *testing.B) {
	batch := make([]types.Delta, 256)
	for i := range batch {
		batch[i] = types.Insert(types.NewTuple(int64(i), float64(i)*1.5, "payload"))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := cluster.EncodeDeltas(batch)
		if _, err := cluster.DecodeDeltas(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPreAgg measures pre-aggregation pushdown (§5.2) on the
// Fig. 4-style aggregation: combiner on vs off ahead of the rehash.
func BenchmarkAblationPreAgg(b *testing.B) {
	rows := datagen.LineItems(20000, 4)
	for _, pre := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(pre.name, func(b *testing.B) {
			cat := catalog.New()
			if err := cat.AddTable(&catalog.Table{
				Name: "lineitem", Schema: types.MustSchema(datagen.LineItemSchema...), PartitionKey: 0,
			}); err != nil {
				b.Fatal(err)
			}
			eng := exec.NewEngine(4, 32, 2, cat)
			if err := eng.Load("lineitem", 0, rows); err != nil {
				b.Fatal(err)
			}
			p := exec.NewPlanSpec()
			scan := p.Add(&exec.OpSpec{Kind: exec.OpScan, Table: "lineitem"})
			proj := p.Add(&exec.OpSpec{
				Kind: exec.OpProject, Inputs: []int{scan.ID},
				Exprs: []expr.Expr{
					expr.NewCol(1, types.KindInt, "linenumber"),
					expr.NewCol(5, types.KindFloat, "tax"),
				},
			})
			upstream := proj.ID
			if pre.on {
				pa := p.Add(&exec.OpSpec{
					Kind: exec.OpPreAgg, Inputs: []int{proj.ID}, GroupKey: []int{0},
					Aggs: []exec.AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "tax")}}},
				})
				upstream = pa.ID
			}
			rh := p.Add(&exec.OpSpec{Kind: exec.OpRehash, Inputs: []int{upstream}, HashKey: []int{0}})
			gb := p.Add(&exec.OpSpec{
				Kind: exec.OpGroupBy, Inputs: []int{rh.ID}, GroupKey: []int{0},
				Aggs: []exec.AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "tax")}}},
			})
			p.RootID = gb.ID
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(p, exec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.BytesSent
			}
			b.ReportMetric(float64(bytes), "bytes/query")
		})
	}
}

// BenchmarkAblationReplication measures storage/checkpoint replication
// factor 1 vs 3 on a checkpointed recursive query.
func BenchmarkAblationReplication(b *testing.B) {
	g := datagen.DBPediaGraph(800, 1)
	for _, repl := range []int{1, 3} {
		b.Run(types.AsString(int64(repl)), func(b *testing.B) {
			cat := catalog.New()
			if err := cat.AddTable(&catalog.Table{
				Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0,
			}); err != nil {
				b.Fatal(err)
			}
			cfg := algos.PageRankConfig{Epsilon: 0.001, Delta: true, MaxIterations: 25}
			jn, wn, err := algos.RegisterPageRank(cat, cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng := exec.NewEngine(4, 32, repl, cat)
			if err := eng.Load("graph", 0, g.Edges); err != nil {
				b.Fatal(err)
			}
			plan := algos.PageRankPlan(cfg, jn, wn)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(plan, exec.Options{Checkpoint: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
