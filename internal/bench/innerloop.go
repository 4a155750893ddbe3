// Inner-loop benchmark: the per-round shuffle cycle that dominates the
// recursive workloads (SSSP, PageRank) — decode an incoming columnar delta
// frame, hash-route every delta to its destination partition off the key
// lane, re-encode the per-destination frames through pooled buffers.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// CIInnerLoop records one inner-loop measurement (one workload shape).
// RowsPerSec and AllocsPerRound are the trend fields CI gates on;
// HeapGrowthBytes is the steady-state check — live heap after GC must not
// grow across 50 pooled rounds.
type CIInnerLoop struct {
	Workload string `json:"workload"`
	Rows     int    `json:"rows"`   // deltas per round
	Rounds   int    `json:"rounds"` // timed rounds

	RowsPerSec     float64 `json:"rows_per_sec"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"alloc_bytes_per_round"`
	// HeapGrowthBytes is live-heap growth (post-GC) across 50 additional
	// steady-state rounds; pooled arenas must hold this at ~zero.
	HeapGrowthBytes int64 `json:"heap_growth_bytes,omitempty"`
	// Checksum folds every (destination, key-hash) routing decision, so a
	// routing change shows across commits.
	Checksum string  `json:"checksum"`
	Millis   float64 `json:"ms"`
}

// innerLoopShape describes one workload-shaped delta stream.
type innerLoopShape struct {
	name string
	gen  func(round, i int) types.Delta
}

// innerLoopShapes are the delta streams of the two recursive rexbench
// workloads: SSSP ships (vertex, dist) δ-updates, PageRank ships
// (vertex, rank, degree) contributions.
func innerLoopShapes() []innerLoopShape {
	return []innerLoopShape{
		{name: "sssp", gen: func(round, i int) types.Delta {
			v := int64((i*2654435761 + round*97) % 100003)
			d := types.Delta{Op: types.OpUpdate, Tup: types.NewTuple(v, float64(round+i%17))}
			if i%5 == 0 {
				d.Op = types.OpInsert
			}
			return d
		}},
		{name: "pagerank", gen: func(round, i int) types.Delta {
			v := int64((i*40503 + round*31) % 100003)
			return types.Delta{Op: types.OpUpdate, Tup: types.NewTuple(v, 0.85/float64(1+i%9), int64(1+i%9))}
		}},
	}
}

const (
	innerLoopRows   = 8192 // deltas per round
	innerLoopRounds = 50   // timed rounds
	innerLoopNodes  = 4    // routing destinations
	innerLoopFlush  = 1024 // per-destination frame granularity (defaultBatchSize)
)

// innerLoopKey is the partition key of both workload shapes.
var innerLoopKey = []int{0}

// innerRound is one inner loop: near-zero-copy decode of a columnar frame,
// vectorized key hashing into pooled per-destination batches, lazy
// re-encode through the pooled payload buffers.
func innerRound(frame []byte, dests []*types.DeltaBatch, hashes *[]uint64, sink *int64, sum *uint64) error {
	_, cb, err := cluster.DecodeDeltasAny(frame)
	if err != nil {
		return err
	}
	flush := func(n int) {
		buf := cluster.GetPayloadBuf()
		payload := cluster.EncodeDeltaBatch(buf, dests[n])
		*sink += int64(len(payload))
		cluster.PutPayloadBuf(payload)
		dests[n].Reset()
	}
	*hashes = cb.HashKeys(innerLoopKey, *hashes)
	for i, h := range *hashes {
		n := int(h % innerLoopNodes)
		*sum = (*sum ^ (h + uint64(n))) * 1099511628211
		if !dests[n].CanAppendRowFrom(cb, i) || dests[n].Len() >= innerLoopFlush {
			flush(n)
		}
		dests[n].AppendRowFrom(cb, i)
	}
	for n := range dests {
		if dests[n].Len() > 0 {
			flush(n)
		}
	}
	return nil
}

// InnerLoopBench runs the inner loop over both workload shapes and
// returns the CI rows.
func InnerLoopBench(w io.Writer) ([]CIInnerLoop, error) {
	var out []CIInnerLoop
	rep := &Report{
		Title: "Shuffle inner loop (columnar)",
		Notes: fmt.Sprintf("%d deltas/round routed across %d partitions; decode → hash-route → re-encode",
			innerLoopRows, innerLoopNodes),
		Headers: []string{"workload", "rows/sec", "allocs/round", "alloc_bytes/round",
			"heap_growth", "checksum", "ms"},
	}
	for _, shape := range innerLoopShapes() {
		// Pre-encode each round's frame outside the timed region.
		frames := make([][]byte, innerLoopRounds)
		for r := 0; r < innerLoopRounds; r++ {
			deltas := make([]types.Delta, innerLoopRows)
			for i := range deltas {
				deltas[i] = shape.gen(r, i)
			}
			cb, ok := types.FromDeltas(deltas)
			if !ok {
				return nil, fmt.Errorf("bench: %s deltas not batchable", shape.name)
			}
			frames[r] = cluster.EncodeDeltaBatch(nil, cb)
		}

		dests := make([]*types.DeltaBatch, innerLoopNodes)
		for n := range dests {
			dests[n] = types.GetBatch()
		}
		var hashes []uint64
		rec, err := timeInnerLoop(shape.name, func(r int, sink *int64, sum *uint64) error {
			return innerRound(frames[r%innerLoopRounds], dests, &hashes, sink, sum)
		})
		if err != nil {
			return nil, err
		}

		// Steady-state heap check: after warmup + GC, 50 more pooled
		// rounds must not grow the live heap — the arenas recycle.
		var sink int64
		var sum uint64
		for r := 0; r < 10; r++ {
			if err := innerRound(frames[r%innerLoopRounds], dests, &hashes, &sink, &sum); err != nil {
				return nil, err
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for r := 0; r < 50; r++ {
			if err := innerRound(frames[r%innerLoopRounds], dests, &hashes, &sink, &sum); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		rec.HeapGrowthBytes = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		for n := range dests {
			types.PutBatch(dests[n])
		}

		out = append(out, rec)
		rep.Rows = append(rep.Rows, []string{
			rec.Workload,
			fmt.Sprintf("%.0f", rec.RowsPerSec),
			fmt.Sprintf("%.0f", rec.AllocsPerRound),
			fmt.Sprintf("%.0f", rec.BytesPerRound),
			fmt.Sprint(rec.HeapGrowthBytes),
			rec.Checksum, fmt.Sprintf("%.1f", rec.Millis),
		})
	}
	rep.Print(w)
	return out, nil
}

// timeInnerLoop measures rows/sec over the timed rounds plus allocation
// counters from runtime.MemStats (Mallocs/TotalAlloc are monotonic, so no
// GC is forced inside the timed region).
func timeInnerLoop(workload string, round func(r int, sink *int64, sum *uint64) error) (CIInnerLoop, error) {
	rec := CIInnerLoop{Workload: workload, Rows: innerLoopRows, Rounds: innerLoopRounds}
	var sink int64
	var sum uint64
	// Warm pools and caches with two untimed rounds.
	for r := 0; r < 2; r++ {
		if err := round(r, &sink, &sum); err != nil {
			return rec, err
		}
	}
	sum = 0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < innerLoopRounds; r++ {
		if err := round(r, &sink, &sum); err != nil {
			return rec, err
		}
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	rec.Checksum = fmt.Sprintf("%016x", sum)
	rec.Millis = float64(dur) / float64(time.Millisecond)
	if dur > 0 {
		rec.RowsPerSec = float64(innerLoopRows*innerLoopRounds) / dur.Seconds()
	}
	rec.AllocsPerRound = float64(after.Mallocs-before.Mallocs) / innerLoopRounds
	rec.BytesPerRound = float64(after.TotalAlloc-before.TotalAlloc) / innerLoopRounds
	_ = sink
	return rec, nil
}
