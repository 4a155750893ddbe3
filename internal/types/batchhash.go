package types

import (
	"encoding/binary"
	"math"
)

// Routing hashes of a whole batch: one loop per column instead of one
// boxed row per hash. Every result is bit-identical to hashing the row's
// boxed tuple (Tuple.HashKey, Tuple.Hash), NULLs, mixed lanes and
// integral floats included.

// HashKeys writes Tuple.HashKey(key) of every row's new image to dst
// (grown to Len, indexed by row) and returns it: the hash a rehash routes
// the row by. (In a composite key, a mixed-lane value of no engine kind
// hashes as its printed string, as GroupTable keys it.)
func (b *DeltaBatch) HashKeys(key []int, dst []uint64) []uint64 {
	return hashKeys(b.cols, b.n, key, dst)
}

// OldHashKeys is HashKeys over the old-image group, which the batch must
// carry (HasOld). Only replace rows' entries are meaningful; the others
// hash their NULL padding.
func (b *DeltaBatch) OldHashKeys(key []int, dst []uint64) []uint64 {
	return hashKeys(b.old, b.n, key, dst)
}

// HashRows writes Tuple.Hash of every row's new image to dst (grown to
// Len, indexed by row) and returns it: the whole-tuple hash a keyless
// edge routes by.
func (b *DeltaBatch) HashRows(dst []uint64) []uint64 {
	dst = sizedHashes(dst, b.n)
	for i := range dst {
		dst[i] = tupleHashSeed
	}
	for j := range b.cols {
		b.cols[j].hashInto(dst, true)
	}
	return dst
}

// tupleHashSeed is Tuple.Hash's starting value.
const tupleHashSeed = 1469598103934665603

func sizedHashes(dst []uint64, n int) []uint64 {
	if cap(dst) < n {
		return make([]uint64, n)
	}
	return dst[:n]
}

func hashKeys(cols []Column, n int, key []int, dst []uint64) []uint64 {
	dst = sizedHashes(dst, n)
	if len(key) == 1 {
		// Tuple.HashKey is HashValue(normKey(v)); normKey only folds
		// integral floats onto int64, which HashValue does anyway.
		cols[key[0]].hashInto(dst, false)
		return dst
	}
	// A composite key hashes as the string its parts encode to
	// (appendKeyPart): the string tag, then every part's bytes.
	h0 := fnvByte(fnvOffset, 3)
	for i := range dst {
		dst[i] = h0
	}
	for _, c := range key {
		cols[c].mixKeyParts(dst)
	}
	return dst
}

// fnv8 mixes the eight little-endian bytes of u into h.
func fnv8(h, u uint64) uint64 {
	h = (h ^ u&0xff) * fnvPrime
	h = (h ^ u>>8&0xff) * fnvPrime
	h = (h ^ u>>16&0xff) * fnvPrime
	h = (h ^ u>>24&0xff) * fnvPrime
	h = (h ^ u>>32&0xff) * fnvPrime
	h = (h ^ u>>40&0xff) * fnvPrime
	h = (h ^ u>>48&0xff) * fnvPrime
	return (h ^ u>>56) * fnvPrime
}

func fnvString(h uint64, s string) uint64 {
	for k := 0; k < len(s); k++ {
		h = fnvByte(h, s[k])
	}
	return h
}

// hashInto computes HashValue of every row (hashAt, a column at a time)
// and xors it into dst. With acc each dst[i] is first multiplied by the
// FNV prime, which folds the column in as Tuple.Hash does (h*prime ^
// hash); without, dst is cleared first, so it ends up holding the hash.
// NULL-free int and float lanes take a typed loop; other lanes go row by
// row through hashAt, which boxes nothing either.
func (c *Column) hashInto(dst []uint64, acc bool) {
	c.mat()
	dst = dst[:c.n]
	if acc {
		for i := range dst {
			dst[i] *= fnvPrime
		}
	} else {
		clear(dst)
	}
	hInt := fnvByte(fnvOffset, 1)
	switch {
	case len(c.nulls) == 0 && c.anys == nil && c.kind == KindInt:
		for i, x := range c.ints[:c.n] {
			dst[i] ^= fnv8(hInt, uint64(x))
		}
	case len(c.nulls) == 0 && c.anys == nil && c.kind == KindFloat:
		hFloat := fnvByte(fnvOffset, 2)
		for i, x := range c.floats[:c.n] {
			if float64(int64(x)) == x && !math.IsInf(x, 0) {
				dst[i] ^= fnv8(hInt, uint64(int64(x)))
			} else {
				dst[i] ^= fnv8(hFloat, math.Float64bits(x))
			}
		}
	default:
		for i := range dst {
			dst[i] ^= c.hashAt(i)
		}
	}
}

// mixKeyParts mixes every row's composite-key part for this column into
// dst: the bytes appendKeyBits (appendKeyPart, unboxed) encodes it to.
func (c *Column) mixKeyParts(dst []uint64) {
	for i := range dst[:c.n] {
		k, w, s := c.bitsAt(i)
		switch k, w = normBits(k, w); k {
		case KindInt:
			dst[i] = fnv8(fnvByte(dst[i], 1), w)
		case KindFloat:
			dst[i] = fnv8(fnvByte(dst[i], 2), w)
		case KindString:
			var n [binary.MaxVarintLen64]byte
			h := fnvByte(dst[i], 3)
			for _, b := range binary.AppendUvarint(n[:0], uint64(len(s))) {
				h = fnvByte(h, b)
			}
			dst[i] = fnvString(h, s)
		case KindBool:
			dst[i] = fnvByte(fnvByte(dst[i], 4), byte(w))
		default:
			dst[i] = fnvByte(dst[i], 0)
		}
	}
}
