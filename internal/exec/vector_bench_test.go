package exec

// Microbenchmarks for the operator inner loop: the identical delta stream
// pushed through filter→preAgg as rows through the outputs.send adapter
// and as a decoded columnar frame. Run with
//
//	go test -run '^$' -bench 'Vector|Row' -benchmem ./internal/exec
//
// and compare B/op and allocs/op between the pairs. CI's bench-micro job
// runs every benchmark once (-benchtime 1x) as a compile-and-run check;
// timings come from local runs against a parent checkout.

import (
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
)

// benchStream builds an SSSP-shaped delta stream: (vertex, dist) updates
// with a sprinkle of inserts.
func benchStream(n int) []types.Delta {
	ds := make([]types.Delta, n)
	for i := range ds {
		op := types.OpUpdate
		if i%5 == 0 {
			op = types.OpInsert
		}
		ds[i] = types.Delta{Op: op, Tup: types.NewTuple(int64(i%997), float64(i%31))}
	}
	return ds
}

// benchPipeline wires filter(dist < 25) → preAgg(min-free: sum by vertex),
// both compiled to kernels over benchSchema.
func benchPipeline(b *testing.B) (*filterOp, *preAggOp) {
	agg, err := newPreAggOp(&OpSpec{
		GroupKey: []int{0},
		Aggs:     []AggSpec{{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "d")}, OutName: "s", OutKind: types.KindFloat}},
	}, 1, benchSchema, true)
	if err != nil {
		b.Fatal(err)
	}
	f := newFilterOp(expr.NewCmp(expr.OpLt, expr.NewCol(1, types.KindFloat, "d"), expr.NewConst(float64(25))), benchSchema, true)
	f.outs = outputs{{op: agg, port: 0}}
	return f, agg
}

// The data-path pair measures the two ways deltas reach the pipeline:
// rows emitted by a per-row operator (join, fixpoint, group-by flush),
// packed into pooled batches by the outputs.send adapter, and an arriving
// MsgData frame, decoded by aliasing the frame buffer.
func BenchmarkDataPathFilterPreAggRow(b *testing.B) {
	f, _ := benchPipeline(b)
	rows := benchStream(8192)
	outs := outputs{{op: f, port: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := outs.send(rows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataPathFilterPreAggVector(b *testing.B) {
	f, _ := benchPipeline(b)
	cb, ok := types.FromDeltas(benchStream(8192))
	if !ok {
		b.Fatal("stream not batchable")
	}
	payload := cluster.EncodeDeltaBatch(nil, cb)
	before := ReadKernelStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dec, err := cluster.DecodeDeltasAny(payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Push(0, dec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The leg measures the kernels: a batch the interpreter took would
	// time the wrong path.
	if after := ReadKernelStats(); after.BridgedBatches != before.BridgedBatches || after.FallbackEvals != before.FallbackEvals {
		b.Fatalf("kernel stats moved from %+v to %+v: batches left the kernels", before, after)
	}
}

// benchSchema matches benchStream's (vertex int, dist float) shape.
var benchSchema = []types.Kind{types.KindInt, types.KindFloat}

// batchCountSink consumes batches without materializing rows, so the
// compiled-vs-interpreted pairs measure expression evaluation, not downstream
// delivery.
type batchCountSink struct{ rows int }

func (c *batchCountSink) Push(port int, b *types.DeltaBatch) error {
	c.rows += b.Len()
	return nil
}
func (c *batchCountSink) Punct(port, stratum int, closed bool) error { return nil }

// benchBatch4k is the 4096-row batch the compiled-vs-interpreted pairs
// share.
func benchBatch4k(b *testing.B) *types.DeltaBatch {
	cb, ok := types.FromDeltas(benchStream(4096))
	if !ok {
		b.Fatal("stream not batchable")
	}
	return cb
}

// The filter pair isolates predicate evaluation over one resident
// 4096-row batch: compiled kernel (typed float loop + selection vector)
// vs an interpreter-only kernel (box every row, interpret the tree).
func benchFilter4k(b *testing.B, f *filterOp) {
	sink := &batchCountSink{}
	f.outs = outputs{{op: sink, port: 0}}
	cb := benchBatch4k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Push(0, cb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilter4kKernel(b *testing.B) {
	f := newFilterOp(expr.NewCmp(expr.OpLt, expr.NewCol(1, types.KindFloat, "d"), expr.NewConst(float64(25))), benchSchema, true)
	if f.ks.bridged {
		b.Fatal("predicate must compile")
	}
	benchFilter4k(b, f)
}

func BenchmarkFilter4kBridged(b *testing.B) {
	f := newFilterOp(expr.NewCmp(expr.OpLt, expr.NewCol(1, types.KindFloat, "d"), expr.NewConst(float64(25))), nil, false)
	benchFilter4k(b, f)
}

// The survivor-copy pair isolates the filter kernel's output assembly:
// the rows passing dist < 25 gathered a column at a time (what a kernel
// filter with no kernel stage after it does for batches without replace
// rows) vs copied row by row with AppendRowFrom.
func benchSurvivors(b *testing.B) (*types.DeltaBatch, []int32) {
	cb := benchBatch4k(b)
	var sel []int32
	for i := 0; i < cb.Len(); i++ {
		if d, _ := cb.Col(1).Float(i); d < 25 {
			sel = append(sel, int32(i))
		}
	}
	return cb, sel
}

func BenchmarkFilter4kGather(b *testing.B) {
	cb, sel := benchSurvivors(b)
	out := types.GetBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Gather(cb, sel)
		out.Reset()
	}
}

func BenchmarkFilter4kRowCopy(b *testing.B) {
	cb, sel := benchSurvivors(b)
	out := types.GetBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range sel {
			out.AppendRowFrom(cb, int(r))
		}
		out.Reset()
	}
}

// The project pair measures compiled kernels vs interpreter-only ones:
// (vertex, dist*0.5+1) over the same 4096-row batch.
func benchProjectExprs() []expr.Expr {
	return []expr.Expr{
		expr.NewCol(0, types.KindInt, "v"),
		expr.NewArith(expr.OpAdd,
			expr.NewArith(expr.OpMul, expr.NewCol(1, types.KindFloat, "d"), expr.NewConst(float64(0.5))),
			expr.NewConst(float64(1))),
	}
}

func benchProject4k(b *testing.B, p *projectOp) {
	sink := &batchCountSink{}
	p.outs = outputs{{op: sink, port: 0}}
	cb := benchBatch4k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Push(0, cb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProject4kKernel(b *testing.B) {
	p := newProjectOp(benchProjectExprs(), nil, benchSchema, true)
	if p.ks.bridged {
		b.Fatal("projection must compile")
	}
	benchProject4k(b, p)
}

func BenchmarkProject4kBridged(b *testing.B) {
	p := newProjectOp(benchProjectExprs(), nil, nil, false)
	benchProject4k(b, p)
}

// BenchmarkFilterChainProject4k is the read path of serve-mixed's
// aggregate query: the two conjunct filters quantity < 30 and
// linenumber > 1, then a project of (returnflag, extendedprice), over
// one 4096-row lineitem batch, wired as a worker wires them.
func BenchmarkFilterChainProject4k(b *testing.B) {
	schema := []types.Kind{types.KindInt, types.KindInt, types.KindFloat, types.KindFloat,
		types.KindFloat, types.KindFloat, types.KindString, types.KindString}
	col := func(i int, name string) expr.Expr { return expr.NewCol(i, schema[i], name) }
	qty := newFilterOp(expr.NewCmp(expr.OpLt, col(2, "quantity"), expr.NewConst(30.0)), schema, true)
	line := newFilterOp(expr.NewCmp(expr.OpGt, col(1, "linenumber"), expr.NewConst(int64(1))), schema, true)
	proj := newProjectOp([]expr.Expr{col(6, "returnflag"), col(3, "extendedprice")}, nil, schema, true)
	if qty.ks.bridged || line.ks.bridged || proj.ks.bridged {
		b.Fatal("chain must compile")
	}
	sink := &batchCountSink{}
	qty.outs = outputs{{op: line, port: 0}}
	line.outs = outputs{{op: proj, port: 0}}
	proj.outs = outputs{{op: sink, port: 0}}
	ds := make([]types.Delta, 0, 4096)
	for _, t := range datagen.LineItems(4096, 1) {
		ds = append(ds, types.Insert(t))
	}
	cb, ok := types.FromDeltas(ds)
	if !ok {
		b.Fatal("lineitem not batchable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := qty.Push(0, cb); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sink.rows)/float64(b.N), "rows/op")
}

// The pre-aggregation pair times one 4096-row batch folded into a
// resident table by count(*) and sum(v): finding each row's group and
// running both aggregates' folds, with the sum's argument from its
// kernel.
func benchPreAgg4k(b *testing.B, key types.Kind, ngroups int) {
	schema := []types.Kind{key, types.KindFloat}
	p, err := newPreAggOp(&OpSpec{
		GroupKey: []int{0},
		Aggs: []AggSpec{
			{Fn: "count", OutName: "n", OutKind: types.KindInt},
			{Fn: "sum", Args: []expr.Expr{expr.NewCol(1, types.KindFloat, "v")}, OutName: "s", OutKind: types.KindFloat},
		},
	}, 1, schema, true)
	if err != nil {
		b.Fatal(err)
	}
	if p.ks.bridged {
		b.Fatal("sum's argument must compile")
	}
	cb := types.GetBatch()
	for i := 0; i < 4096; i++ {
		var k types.Value = int64(i % ngroups)
		if key == types.KindString {
			k = string(rune('A' + i%ngroups))
		}
		cb.AppendInsert(types.NewTuple(k, float64(i%31)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Push(0, cb); err != nil {
			b.Fatal(err)
		}
	}
	if p.tab.Len() != ngroups {
		b.Fatalf("%d groups, want %d", p.tab.Len(), ngroups)
	}
}

// BenchmarkPreAggIntKey4k is standing-churn's ad hoc aggregate: an int
// key over 64 groups.
func BenchmarkPreAggIntKey4k(b *testing.B) { benchPreAgg4k(b, types.KindInt, 64) }

// BenchmarkPreAggStringKey4k is serve-mixed's: a one-byte string key
// (returnflag) over 3 groups.
func BenchmarkPreAggStringKey4k(b *testing.B) { benchPreAgg4k(b, types.KindString, 3) }
