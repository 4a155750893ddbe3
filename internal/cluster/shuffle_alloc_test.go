package cluster

import (
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// The shuffle cycle of the recursive workloads, as a rehash runs it per
// received frame: decode the columnar payload in place (DecodeDeltasAny),
// hash every routing key a column at a time (HashKeys), append each row
// to its destination's batch, and re-encode every full batch through a
// pooled payload buffer (GetPayloadBuf / PutPayloadBuf).

const (
	shuffleDests = 4    // routing destinations
	shuffleFlush = 1024 // rows per destination frame (the default batch size)

	// maxShuffleCycleAllocs pins a round's allocations: 4 (SSSP) and 5
	// (PageRank) measured at 1 024 and at 8 192 deltas, all of them the
	// decode's. A re-encoded frame allocates nothing: the caller keeps the
	// pooled buffer's pointer and hands it back.
	maxShuffleCycleAllocs = 5
)

// raceEnabled is set under -race, where sync.Pool drops a quarter of
// what is put back on purpose, so pooled allocation counts mean nothing.
var raceEnabled bool

// shuffleShapes are the delta streams of the two recursive workloads:
// SSSP ships (vertex, dist) δ-updates, PageRank (vertex, rank, degree)
// contributions.
var shuffleShapes = []struct {
	name string
	gen  func(i int) types.Delta
}{
	{"sssp", func(i int) types.Delta {
		d := types.Delta{Op: types.OpUpdate, Tup: types.NewTuple(int64((i*2654435761)%100003), float64(i%17))}
		if i%5 == 0 {
			d.Op = types.OpInsert
		}
		return d
	}},
	{"pagerank", func(i int) types.Delta {
		return types.Delta{Op: types.OpUpdate, Tup: types.NewTuple(int64((i*40503)%100003), 0.85/float64(1+i%9), int64(1+i%9))}
	}},
}

// shuffleCycle routes one received frame to dests and returns how many
// frames it re-encoded.
func shuffleCycle(t *testing.T, frame []byte, dests []*types.DeltaBatch, hashes *[]uint64) int {
	_, cb, err := DecodeDeltasAny(frame)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	flush := func(n int) {
		buf := GetPayloadBuf()
		*buf = EncodeDeltaBatch(*buf, dests[n])
		PutPayloadBuf(buf)
		frames++
		dests[n].Reset()
	}
	*hashes = cb.HashKeys([]int{0}, *hashes)
	for i, h := range *hashes {
		n := int(h % shuffleDests)
		if !dests[n].CanAppendRowFrom(cb, i) || dests[n].Len() >= shuffleFlush {
			flush(n)
		}
		dests[n].AppendRowFrom(cb, i)
	}
	for n := range dests {
		if dests[n].Len() > 0 {
			flush(n)
		}
	}
	return frames
}

// TestShuffleCycleAllocs gates the cycle's steady state at 1 024 and
// 8 192 deltas per round: a round's allocations must not grow with its
// row count or its frame count (the pooled payload buffers and
// destination batches are reused), and the total stays under
// maxShuffleCycleAllocs.
func TestShuffleCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race")
	}
	for _, shape := range shuffleShapes {
		perRound := map[int]float64{}
		for _, rows := range []int{1024, 8192} {
			ds := make([]types.Delta, rows)
			for i := range ds {
				ds[i] = shape.gen(i)
			}
			cb, ok := types.FromDeltas(ds)
			if !ok {
				t.Fatalf("%s: deltas not batchable", shape.name)
			}
			frame := EncodeDeltaBatch(nil, cb)
			dests := make([]*types.DeltaBatch, shuffleDests)
			for n := range dests {
				dests[n] = types.GetBatch()
			}
			var hashes []uint64
			frames := shuffleCycle(t, frame, dests, &hashes)
			allocs := testing.AllocsPerRun(50, func() { shuffleCycle(t, frame, dests, &hashes) })
			for _, b := range dests {
				types.PutBatch(b)
			}
			perRound[rows] = allocs
			t.Logf("%s: %d deltas, %d frames: %.0f allocations per round", shape.name, rows, frames, allocs)
			if allocs > maxShuffleCycleAllocs {
				t.Errorf("%s: %.0f allocations per %d-delta round, want ≤ %d", shape.name, allocs, rows, maxShuffleCycleAllocs)
			}
		}
		// One allocation of slack absorbs a GC emptying the pool while
		// the runs are counted.
		if perRound[8192] > perRound[1024]+1 {
			t.Errorf("%s: allocations per round grew from %.0f at 1 024 deltas to %.0f at 8 192",
				shape.name, perRound[1024], perRound[8192])
		}
	}
}
