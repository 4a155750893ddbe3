package exec

// The combining shuffle's send side in isolation: one stratum's worth of
// δ() deltas pushed into a folding rehash over a two-node in-process
// transport, then punctuated (which flushes). Run with
//
//	go test -run '^$' -bench RehashCombine -benchmem ./internal/exec
//
// The folding stream repeats 997 keys (PageRank-shaped: most deltas merge
// into a pending row); the distinct stream never repeats one (every delta
// becomes a row, the index only costs). Row-form input is what per-row
// operators (handler joins) emit through the outputs.send adapter,
// batch-form what an arriving frame or a kernel operator pushes.

import (
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

const combineStratum = 8192

// combineStream builds one stratum of (key, contribution) δ() deltas over
// `keys` distinct keys.
func combineStream(keys int) []types.Delta {
	ds := make([]types.Delta, combineStratum)
	for i := range ds {
		ds[i] = types.Update(types.NewTuple(int64(i%keys), float64(i%31)/4))
	}
	return ds
}

// newCombineRehash wires a folding sum-merging rehash on node 0 of a
// two-node in-process cluster, its loopback output feeding a counting
// sink.
func newCombineRehash(tb testing.TB) (*rehashOp, *cluster.InProcTransport) {
	tr := cluster.NewInProcTransport(2)
	ring := cluster.NewRing(2, 64, 1)
	ctx := &Context{
		Node: 0, Snap: cluster.NewSnapshot(ring, ring.Nodes()), Transport: tr,
		BatchSize: defaultBatchSize, Drain: &cluster.DrainMeter{},
	}
	r := newRehashOp(&OpSpec{ID: 1, Kind: OpRehash, HashKey: []int{0}, Fold: true, CompactMerge: map[int]string{1: "sum"}}, ctx, false)
	r.outs = outputs{{op: &batchCountSink{}, port: 0}}
	tb.Cleanup(func() { _ = tr.Close() })
	return r, tr
}

// shuffleStratum pushes one stratum through the send side, punctuates,
// and empties the peer's inbox (the frames a real peer would consume).
func shuffleStratum(tb testing.TB, r *rehashOp, tr *cluster.InProcTransport, rows []types.Delta, batch *types.DeltaBatch, stratum int) {
	var err error
	if batch != nil {
		err = r.Push(0, batch)
	} else {
		err = outputs{{op: r, port: 0}}.send(rows)
	}
	if err == nil {
		err = r.Punct(0, stratum, false)
	}
	if err != nil {
		tb.Fatal(err)
	}
	tr.Inbox(1).Drain()
}

func benchRehashCombine(b *testing.B, keys int, batchForm bool) {
	r, tr := newCombineRehash(b)
	rows := combineStream(keys)
	var batch *types.DeltaBatch
	if batchForm {
		batch, _ = types.FromDeltas(rows)
	}
	shuffleStratum(b, r, tr, rows, batch, 0) // size the stores and index once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleStratum(b, r, tr, rows, batch, i+1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*combineStratum), "ns/delta")
}

func BenchmarkRehashCombineFoldingRows(b *testing.B)   { benchRehashCombine(b, 997, false) }
func BenchmarkRehashCombineFoldingBatch(b *testing.B)  { benchRehashCombine(b, 997, true) }
func BenchmarkRehashCombineDistinctRows(b *testing.B)  { benchRehashCombine(b, combineStratum, false) }
func BenchmarkRehashCombineDistinctBatch(b *testing.B) { benchRehashCombine(b, combineStratum, true) }

// maxAllocsPerShuffledDelta bounds the folding path's steady state: the
// stores and their indexes are reused across flushes and payload buffers
// come from GetPayloadBuf, so what remains is per flushed frame (the
// frame copy and its mailbox slot), never per delta. 8192 deltas make a
// handful of frames; 0.01 allocations per delta leaves room for ~80.
const maxAllocsPerShuffledDelta = 0.01

func TestRehashCombineSteadyStateAllocs(t *testing.T) {
	for _, form := range []string{"rows", "batch"} {
		r, tr := newCombineRehash(t)
		rows := combineStream(997)
		var batch *types.DeltaBatch
		if form == "batch" {
			batch, _ = types.FromDeltas(rows)
		}
		stratum := 0
		shuffleStratum(t, r, tr, rows, batch, stratum)
		perStratum := testing.AllocsPerRun(20, func() {
			stratum++
			shuffleStratum(t, r, tr, rows, batch, stratum)
		})
		if per := perStratum / combineStratum; per > maxAllocsPerShuffledDelta {
			t.Errorf("%s-form: %.4f allocations per shuffled delta (%.0f per %d-delta stratum), want ≤ %v",
				form, per, perStratum, combineStratum, maxAllocsPerShuffledDelta)
		}
		m := tr.Metrics()
		if in, out := m.CompactIn[0].Load(), m.CompactOut[0].Load(); in == 0 || out*4 > in {
			t.Errorf("%s-form: the folding stream did not fold: in=%d out=%d", form, in, out)
		}
	}
}
