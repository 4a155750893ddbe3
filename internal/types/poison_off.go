//go:build !pooldebug

package types

// poisonBatch is a no-op in normal builds; the pooldebug build tag swaps
// in a version that scribbles on released batches so use-after-release
// bugs surface as loudly wrong values instead of silently stale ones.
func poisonBatch(*DeltaBatch) {}

// PoisonValues is a no-op in normal builds; under pooldebug it scribbles
// over a borrowed row's reused value slots once its borrower returns.
func PoisonValues([]Value) {}
