package types

import "sync"

// The batch pool backs the per-round arenas of the execution hot path:
// operators Get a batch, fill it, hand it downstream (consumers copy
// column-wise or materialize fresh tuples — synchronous push calls mean
// the batch cannot be referenced after the send returns), and Put it
// back, so steady-state rounds allocate O(1) instead of O(deltas).
var batchPool = sync.Pool{New: func() any { return new(DeltaBatch) }}

// MaxPooledRows is the most rows a batch may have held and still go back
// to the pool: one grown for a checkpoint image's table or a whole
// stratum's Δ set would park megabytes of column vectors there.
const MaxPooledRows = 1024

// GetBatch returns an empty builder-owned batch from the pool.
func GetBatch() *DeltaBatch {
	return batchPool.Get().(*DeltaBatch)
}

// PutBatch returns a builder-owned batch to the pool. Decoded batches
// (which alias their wire buffer) must never be pooled; handing one in
// is a lifetime bug and panics. Under -tags pooldebug the batch is
// poisoned first, so a consumer that illegally retained a reference
// reads scribbled values instead of silently stale data.
func PutBatch(b *DeltaBatch) {
	if b == nil {
		return
	}
	if b.borrowed {
		panic("types: PutBatch: decoded batches alias their frame buffer and must not be pooled")
	}
	poisonBatch(b)
	b.Reset()
	batchPool.Put(b)
}
