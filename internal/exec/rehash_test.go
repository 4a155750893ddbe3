package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// frameSink records every batch a rehash hands downstream, encoded.
type frameSink struct{ frames [][]byte }

func (s *frameSink) Push(port int, b *types.DeltaBatch) error {
	s.frames = append(s.frames, cluster.EncodeDeltaBatch(nil, b))
	return nil
}
func (s *frameSink) Punct(port, stratum int, closed bool) error { return nil }

// shuffleFrames pushes chunks through a rehash on node 0 of a three-node
// in-process cluster, punctuates, and returns the payloads each node
// received, in order: node 0's through the loopback, the others' off
// their inboxes.
func shuffleFrames(t *testing.T, spec OpSpec, broadcast bool, chunks []*types.DeltaBatch) [][][]byte {
	const nodes = 3
	tr := cluster.NewInProcTransport(nodes)
	defer tr.Close()
	ring := cluster.NewRing(nodes, 16, 1)
	ctx := &Context{
		Node: 0, Snap: cluster.NewSnapshot(ring, ring.Nodes()), Transport: tr,
		BatchSize: 3, Drain: &cluster.DrainMeter{},
	}
	r := newRehashOp(&spec, ctx, broadcast)
	sink := &frameSink{}
	r.outs = outputs{{op: sink, port: 0}}
	for _, c := range chunks {
		if err := r.Push(0, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Punct(0, 0, false); err != nil {
		t.Fatal(err)
	}
	out := make([][][]byte, nodes)
	out[0] = sink.frames
	for n := 1; n < nodes; n++ {
		for tr.Inbox(cluster.NodeID(n)).Len() > 0 {
			msg, _ := tr.Inbox(cluster.NodeID(n)).Get()
			if msg.Kind == cluster.MsgData {
				out[n] = append(out[n], msg.Payload)
			}
		}
	}
	r.Reset()
	return out
}

// Property: routing a batch at a time ships exactly what routing one row
// at a time ships — the same frames, byte for byte, to every node in the
// same order, so folds and flush points do not depend on how the stream
// was chunked. Streams cover every op (replaces that move their key to
// another node split in two), NULLs and mixed lanes, single- and
// multi-column keys, keyless broadcast, and folding and appending edges.
func TestRehashBatchRoutingMatchesRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	value := func() types.Value {
		switch r.Intn(8) {
		case 0:
			return nil
		case 1:
			return fmt.Sprintf("s%d", r.Intn(3))
		case 2:
			return float64(r.Intn(4)) / 2
		default:
			return int64(r.Intn(6))
		}
	}
	tuple := func() types.Tuple { return types.NewTuple(int64(r.Intn(9)), value(), float64(r.Intn(8))/4) }
	for trial := 0; trial < 300; trial++ {
		spec := OpSpec{ID: 1, Kind: OpRehash, Fold: r.Intn(3) > 0}
		switch r.Intn(3) {
		case 0:
			spec.HashKey = []int{0}
		case 1:
			spec.HashKey = []int{0, 1}
		}
		if r.Intn(2) == 0 {
			spec.CompactMerge = map[int]string{2: "sum"}
		}
		broadcast := spec.HashKey == nil
		rows := make([]types.Delta, 1+r.Intn(80))
		for i := range rows {
			switch r.Intn(6) {
			case 0:
				rows[i] = types.Insert(tuple())
			case 1:
				rows[i] = types.Delete(tuple())
			case 2:
				rows[i] = types.Replace(tuple(), tuple())
			default:
				rows[i] = types.Update(tuple())
			}
		}
		var chunks, singles []*types.DeltaBatch
		for lo := 0; lo < len(rows); {
			hi := min(len(rows), lo+1+r.Intn(40))
			c, _ := types.FromDeltas(rows[lo:hi])
			chunks = append(chunks, c)
			lo = hi
		}
		for i := range rows {
			c, _ := types.FromDeltas(rows[i : i+1])
			singles = append(singles, c)
		}
		got := shuffleFrames(t, spec, broadcast, chunks)
		want := shuffleFrames(t, spec, broadcast, singles)
		for n := range want {
			if len(got[n]) != len(want[n]) {
				t.Fatalf("trial %d (key %v fold %v): node %d got %d frames batch-wise, %d row-wise", trial, spec.HashKey, spec.Fold, n, len(got[n]), len(want[n]))
			}
			for k := range want[n] {
				if !bytes.Equal(got[n][k], want[n][k]) {
					t.Fatalf("trial %d (key %v fold %v): node %d frame %d differs between batch-wise and row-wise routing", trial, spec.HashKey, spec.Fold, n, k)
				}
			}
		}
	}
}
