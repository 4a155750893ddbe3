package exec

// A handler join's emit path in isolation: a PRAgg join (Listing 1) whose
// left side holds emitFanout edges per key is fed one emitBatch-row Δ
// batch, every row fanning out to its key's edges. Run with
//
//	go test -run '^$' -bench HandlerJoinEmit -benchmem ./internal/exec

import (
	"fmt"
	"testing"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

const (
	emitKeys   = 128
	emitFanout = 8    // edges per key
	emitBatch  = 1024 // Δ rows per push
)

// prAgg is Listing 1's PRAgg: edges accumulate in the left bucket, and a
// rank diff δ(srcId, d) fans out d/outdeg to every out-neighbor.
func prAgg(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
	if fromLeft {
		left.Add(d.Tup)
		return nil
	}
	v, ok := types.AsFloat(d.Tup[1])
	if !ok {
		return fmt.Errorf("PRAgg delta with non-numeric value %v", d.Tup[1])
	}
	for i := 0; i < left.Len(); i++ {
		out.Begin(types.OpUpdate)
		out.Field(left, i, 1)
		out.Float(v / float64(left.Len()))
		if err := out.End(); err != nil {
			return err
		}
	}
	return nil
}

// newEmitJoin returns a PRAgg join over emitKeys × emitFanout edges whose
// output feeds sink in batches of batchSize rows, and the Δ batch to feed
// it.
func newEmitJoin(tb testing.TB, batchSize int, sink Operator) (*hashJoinOp, *types.DeltaBatch) {
	h := &uda.FuncJoinHandler{HName: "pragg", Out: types.MustSchema("nbr:Integer", "prDiff:Double"), Fn: prAgg}
	spec := &OpSpec{Kind: OpHashJoin, LeftKey: []int{0}, RightKey: []int{0}, JoinHandlerName: "pragg", ImmutablePort: 0}
	j := newHashJoinOp(spec, h, batchSize)
	j.outs = outputs{{op: sink, port: 0}}
	edges := types.GetBatch()
	for k := 0; k < emitKeys; k++ {
		for e := 0; e < emitFanout; e++ {
			edges.AppendInsert(types.NewTuple(int64(k), int64(1000+k*emitFanout+e)))
		}
	}
	if err := j.Push(0, edges); err != nil {
		tb.Fatal(err)
	}
	delta := types.GetBatch()
	for i := 0; i < emitBatch; i++ {
		delta.Append(types.Update(types.NewTuple(int64(i%emitKeys), float64(i)/emitBatch)))
	}
	return j, delta
}

func BenchmarkHandlerJoinEmit(b *testing.B) {
	sink := &batchCountSink{}
	j, delta := newEmitJoin(b, defaultBatchSize, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Push(1, delta); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	emitted := float64(b.N * emitBatch * emitFanout)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/emitted, "ns/delta")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() { _ = j.Push(1, delta) }))/(emitBatch*emitFanout), "allocs/delta")
}

// maxAllocsPerEmittedDelta bounds a handler join's steady state: the
// handler writes into a reused output batch and the input rows
// materialize a batch at a time, so what remains is per input batch,
// never per emitted row. 8192 rows per push leave room for ~80.
const maxAllocsPerEmittedDelta = 0.01

func TestHandlerJoinSteadyStateAllocs(t *testing.T) {
	sink := &batchCountSink{}
	j, delta := newEmitJoin(t, defaultBatchSize, sink)
	must(t, j.Push(1, delta)) // size the output batch once
	perPush := testing.AllocsPerRun(20, func() { must(t, j.Push(1, delta)) })
	if per := perPush / (emitBatch * emitFanout); per > maxAllocsPerEmittedDelta {
		t.Errorf("%.4f allocations per emitted delta (%.0f per %d-row push), want ≤ %v",
			per, perPush, emitBatch*emitFanout, maxAllocsPerEmittedDelta)
	}
	if want := 22 * emitBatch * emitFanout; sink.rows != want {
		t.Errorf("sink received %d rows over 22 pushes, want %d", sink.rows, want)
	}
}

// sizeSink records the size of every batch it receives and the rows in
// order.
type sizeSink struct {
	sizes []int
	rows  []types.Delta
}

func (s *sizeSink) Push(port int, b *types.DeltaBatch) error {
	s.sizes = append(s.sizes, b.Len())
	s.rows = append(s.rows, b.Deltas()...)
	return nil
}
func (s *sizeSink) Punct(port, stratum int, closed bool) error { return nil }

// A hub key's fan-out goes downstream every batchSize rows while the
// handler is still emitting, and the rest at the end of the push.
func TestHandlerJoinFlushesMidHandler(t *testing.T) {
	sink := &sizeSink{}
	j, _ := newEmitJoin(t, 3, sink)
	must(t, j.Push(1, mustBatch(t, types.Update(types.NewTuple(int64(5), 0.8)))))
	if want := []int{3, 3, 2}; fmt.Sprint(sink.sizes) != fmt.Sprint(want) {
		t.Fatalf("batches of %v rows downstream, want %v", sink.sizes, want)
	}
	for e, d := range sink.rows {
		if want := types.Update(types.NewTuple(int64(1000+5*emitFanout+e), 0.1)); d.Op != want.Op || !d.Tup.Equal(want.Tup) {
			t.Fatalf("row %d: %v, want %v", e, d, want)
		}
	}
}

func mustBatch(t *testing.T, ds ...types.Delta) *types.DeltaBatch {
	b, ok := types.FromDeltas(ds)
	if !ok {
		t.Fatal("ragged batch")
	}
	return b
}
