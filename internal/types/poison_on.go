//go:build pooldebug

package types

import "math"

// poisonBatch scribbles recognizable garbage over every vector of a
// batch being released to the pool. Any operator that illegally retained
// a reference into the batch (instead of copying column-wise or
// materializing tuples) now reads poison, which the suite's result-hash
// assertions catch. Only owned storage is scribbled: borrowed batches
// are rejected by PutBatch before poisoning.
func poisonBatch(b *DeltaBatch) {
	for i := range b.ops {
		b.ops[i] = 0xEE
	}
	groups := [2][]Column{b.cols, b.old}
	for _, cols := range groups {
		for i := range cols {
			c := &cols[i]
			for j := range c.ints {
				c.ints[j] = -0x5EAD5EAD5EAD5EAD
			}
			for j := range c.floats {
				c.floats[j] = math.NaN()
			}
			for j := range c.strs {
				c.strs[j] = "«pool-poison»"
			}
			for j := range c.bools {
				c.bools[j] = true
			}
			for j := range c.anys {
				c.anys[j] = "«pool-poison»"
			}
			for j := range c.nulls {
				c.nulls[j] = 0xEE
			}
		}
	}
}

// PoisonValues scribbles over a borrowed row's reused value slots once
// its borrower returns, so a borrower that kept the row reads poison.
func PoisonValues(vals []Value) {
	for i := range vals {
		vals[i] = "«row-poison»"
	}
}
