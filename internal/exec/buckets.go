package exec

import (
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// keyedBuckets is the keyed state of the hash join (one store per side)
// and of the fixpoint: a uda.TupleSet per key, which the operator's delta
// handler revises, and the keys whose bucket moved since the last
// checkpoint. Its checkpoint entries are [keyHash, tag, key, fields...],
// one per bucket tuple; an emptied bucket leaves the tombstone
// [keyHash, tag, key] so recovery clears it.
type keyedBuckets struct {
	tag     types.Value
	buckets map[types.Value]*uda.TupleSet
	// dirty is nil when nothing reads the dirty keys (no checkpoint and no
	// stream changelog): touched then records nothing.
	dirty map[types.Value]bool
}

// newKeyedBuckets builds an empty store that records dirty keys if track.
func newKeyedBuckets(tag types.Value, track bool) *keyedBuckets {
	k := &keyedBuckets{tag: tag, buckets: map[types.Value]*uda.TupleSet{}}
	if track {
		k.dirty = map[types.Value]bool{}
	}
	return k
}

// reset empties the store, keeping its dirty tracking on or off.
func (k *keyedBuckets) reset() {
	k.buckets = map[types.Value]*uda.TupleSet{}
	if k.dirty != nil {
		k.dirty = map[types.Value]bool{}
	}
}

// untrack stops recording dirty keys.
func (k *keyedBuckets) untrack() { k.dirty = nil }

// get returns key's bucket, creating an empty one.
func (k *keyedBuckets) get(key types.Value) *uda.TupleSet {
	b, ok := k.buckets[key]
	if !ok {
		b = &uda.TupleSet{}
		k.buckets[key] = b
	}
	return b
}

// touched marks key dirty when its bucket b moved from version v0.
func (k *keyedBuckets) touched(key types.Value, b *uda.TupleSet, v0 int) {
	if k.dirty != nil && b.Version() != v0 {
		k.dirty[key] = true
	}
}

// all yields every tuple of every bucket.
func (k *keyedBuckets) all(yield func(types.Tuple) bool) {
	for _, b := range k.buckets {
		for _, t := range b.Tuples {
			if !yield(t) {
				return
			}
		}
	}
}

func (k *keyedBuckets) clearDirty() {
	if len(k.dirty) > 0 {
		k.dirty = map[types.Value]bool{}
	}
}

// appendDirty appends the dirty keys' checkpoint entries to out and
// clears the dirty set.
func (k *keyedBuckets) appendDirty(out []types.Tuple) []types.Tuple {
	for key := range k.dirty {
		h := int64(types.HashValue(key))
		b := k.buckets[key]
		if b == nil || b.Len() == 0 {
			out = append(out, types.NewTuple(h, k.tag, key))
			continue
		}
		for _, t := range b.Tuples {
			out = append(out, append(types.NewTuple(h, k.tag, key), t...))
		}
	}
	k.clearDirty()
	return out
}

// restore applies one checkpoint entry of at least three fields. fresh
// holds the keys already restored from the entry's stratum: a key's first
// entry in a stratum resets its bucket.
func (k *keyedBuckets) restore(e types.Tuple, fresh map[types.Value]bool) {
	key := e[2]
	b := k.buckets[key]
	if !fresh[key] { // always so for a NaN key, which no lookup finds
		fresh[key] = true
		b = &uda.TupleSet{}
		k.buckets[key] = b
	}
	if len(e) > 3 {
		b.Add(e[3:].Clone())
	}
}
