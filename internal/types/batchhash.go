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
		b.cols[j].hashInto(dst, 0, true)
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
	hashKeyRange(cols, 0, key, dst)
	return dst
}

// hashKeyRange writes Tuple.HashKey(key) of rows lo .. lo+len(dst)-1 to
// dst, indexed from lo.
func hashKeyRange(cols []Column, lo int, key []int, dst []uint64) {
	if len(key) == 1 {
		// Tuple.HashKey is HashValue(normKey(v)); normKey only folds
		// integral floats onto int64, which HashValue does anyway.
		cols[key[0]].hashInto(dst, lo, false)
		return
	}
	// A composite key hashes as the string its parts encode to
	// (appendKeyPart): the string tag, then every part's bytes.
	h0 := fnvByte(fnvOffset, 3)
	for i := range dst {
		dst[i] = h0
	}
	for _, c := range key {
		cols[c].mixKeyParts(dst, lo)
	}
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

// hashInto computes HashValue of rows lo .. lo+len(dst)-1 (hashAt, a
// column at a time) and xors it into dst, indexed from lo. With acc each
// dst[i] is first multiplied by the FNV prime, which folds the column in
// as Tuple.Hash does (h*prime ^ hash); without, dst is cleared first, so
// it ends up holding the hash. NULL-free int, float and string lanes take
// a typed loop; other lanes go row by row through hashAt, which boxes
// nothing either.
func (c *Column) hashInto(dst []uint64, lo int, acc bool) {
	c.mat()
	hi := lo + len(dst)
	if acc {
		for i := range dst {
			dst[i] *= fnvPrime
		}
	} else {
		clear(dst)
	}
	hInt := fnvByte(fnvOffset, 1)
	typed := len(c.nulls) == 0 && c.anys == nil
	switch {
	case typed && c.kind == KindInt:
		for i, x := range c.ints[lo:hi] {
			dst[i] ^= fnv8(hInt, uint64(x))
		}
	case typed && c.kind == KindFloat:
		hFloat := fnvByte(fnvOffset, 2)
		for i, x := range c.floats[lo:hi] {
			if float64(int64(x)) == x && !math.IsInf(x, 0) {
				dst[i] ^= fnv8(hInt, uint64(int64(x)))
			} else {
				dst[i] ^= fnv8(hFloat, math.Float64bits(x))
			}
		}
	case typed && c.kind == KindString:
		hStr := fnvByte(fnvOffset, 3)
		for i, s := range c.strs[lo:hi] {
			dst[i] ^= fnvString(hStr, s)
		}
	default:
		for i := range dst {
			dst[i] ^= c.hashAt(lo + i)
		}
	}
}

// mixKeyParts mixes the composite-key part of rows lo .. lo+len(dst)-1
// for this column into dst, indexed from lo: the bytes appendKeyPart
// encodes the row's value to.
func (c *Column) mixKeyParts(dst []uint64, lo int) {
	for i := range dst {
		k, w, s := c.bitsAt(lo + i)
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
