package types

// GroupTable is the keyed state table under the delta-aware group-by and
// the pre-aggregation of §3.3/§5.2: one row per group, held in lanes.
//
//   - Key lanes keep each key column's value unboxed (int, float, string,
//     bool, NULL; a composite key is one lane per column), in the
//     representation of the row that created the group.
//   - A KeyIndex maps a key to its group. Its hash is HashValue of
//     Tuple.Key, which is also the key hash checkpoint entries are placed
//     by. Groups computes it a column at a time with the shuffle's batch
//     hash (DeltaBatch.HashKeys), and probes a single int or string key
//     with a typed compare on its key lane.
//   - Accs holds each aggregate's accumulator lanes (Acc); the typed
//     update rules that fold into them live with the aggregates (uda).
//   - Result lanes keep each aggregate's last emitted value per group, so
//     a flush can tell an insertion from a replacement and skip a group
//     whose result did not move.
//   - Two dirty sets (a list in first-dirtied order plus a bitmap) track
//     the groups revised since the last flush and since the last
//     checkpoint.
//
// Group ids are dense row numbers, stable until Reset.
type GroupTable struct {
	keys  []scalars // one lane per key column
	index KeyIndex  // group ids by HashValue of their Tuple.Key

	// Accs holds one accumulator-lane set per aggregate.
	Accs []Acc

	last    []scalars // per aggregate: last emitted result
	emitted []bool    // per group: last holds an emitted result

	dirty, ckpt GroupSet
}

// NewGroupTable creates an empty table for a key of nkey columns and one
// aggregate per entry of lanes, naming the accumulator lanes it folds.
func NewGroupTable(nkey int, lanes []AccLanes) *GroupTable {
	t := &GroupTable{
		keys: make([]scalars, nkey),
		Accs: make([]Acc, len(lanes)),
		last: make([]scalars, len(lanes)),
	}
	for j, l := range lanes {
		t.Accs[j].lanes = l
		if l&AccBag != 0 {
			t.Accs[j].Bag = &Bag{}
		}
	}
	return t
}

// Len reports the group count.
func (t *GroupTable) Len() int { return t.index.Len() }

// Groups finds each row's group by its key columns — of the old image
// when old is set — creating groups for new keys in row order, and
// writes the group ids to gids (grown to the batch length, indexed by
// row). sel restricts the lookup to the listed rows; nil means every
// row.
//
// The keys are hashed a chunk of rows at a time by the routing's batch
// hash (hashKeyRange), into a buffer on the stack. Without sel, a single
// NULL-free int or string key column is then probed with a typed compare
// on its key lane (findTyped).
func (t *GroupTable) Groups(b *DeltaBatch, key []int, old bool, sel []int32, gids []int32) []int32 {
	n := b.Len()
	gids = grow(gids, n)
	cols := b.cols
	if old {
		cols = b.old
	}
	var buf [groupChunk]uint64
	if sel == nil {
		for lo := 0; lo < n; lo += groupChunk {
			hs := buf[:min(groupChunk, n-lo)]
			hashKeyRange(cols, lo, key, hs)
			if t.findTyped(hs, cols, key, lo, gids[lo:]) {
				continue
			}
			for r, h := range hs {
				gids[lo+r] = t.find(h, cols, key, lo+r)
			}
		}
		return gids
	}
	for len(sel) > 0 {
		// A chunk starts at the next selected row and takes the selected
		// rows that follow it in ascending order, each at most selGap rows
		// past the one before, within groupChunk rows. It ends at the last
		// of them, so at most selGap rows are hashed per selected row.
		lo := int(sel[0])
		k := 1
		for k < len(sel) && sel[k] > sel[k-1] && sel[k]-sel[k-1] <= selGap && int(sel[k]) < lo+groupChunk {
			k++
		}
		hs := buf[:int(sel[k-1])-lo+1]
		hashKeyRange(cols, lo, key, hs)
		for _, i := range sel[:k] {
			gids[i] = t.find(hs[int(i)-lo], cols, key, int(i))
		}
		sel = sel[k:]
	}
	return gids
}

// groupChunk is the row count Groups hashes at a time; selGap is the
// widest gap between two selected rows that one chunk spans.
const (
	groupChunk = 256
	selGap     = 8
)

// findTyped is find for rows lo .. lo+len(hs)-1 when the key is one
// NULL-free int or string column; it reports false, doing nothing, for
// any other key. A group holding the column's kind is matched by its key
// lane alone. A group made by another kind (the integral float 3.0 that
// the int 3 meets) takes the hash and keyEq.
func (t *GroupTable) findTyped(hs []uint64, cols []Column, key []int, lo int, gids []int32) bool {
	if len(key) != 1 {
		return false
	}
	c := &cols[key[0]]
	if len(c.nulls) != 0 || c.anys != nil || (c.kind != KindInt && c.kind != KindString) {
		return false
	}
	kind, ints, strs := c.kind, c.ints, c.strs
	lane := &t.keys[0]
	for r, h := range hs {
		i := lo + r
		p, g := t.index.First(h)
		for ; g >= 0; p, g = t.index.Next(p) {
			if lane.k[g] == kind {
				if kind == KindInt && lane.w[g] == uint64(ints[i]) || kind == KindString && lane.strs[g] == strs[i] {
					break
				}
				continue
			}
			if t.index.Hash(g) == h && t.keyEq(g, cols, key, i) {
				break
			}
		}
		if g < 0 {
			g = t.add(p, h, cols, key, i)
		}
		gids[r] = g
	}
	return true
}

// Group finds or creates the group of a boxed key tuple (one value per
// key column) — the checkpoint-restore lookup.
func (t *GroupTable) Group(key Tuple) int32 {
	b, idx := keyBatch(key)
	return t.Groups(b, idx, false, nil, nil)[0]
}

// Fresh adds a group for a boxed key tuple (one value per key column)
// that no lookup finds: a keyed store gives each NaN key a group of its
// own this way, as a Go map keyed by the boxed value does.
func (t *GroupTable) Fresh(key Tuple) int32 {
	b, idx := keyBatch(key)
	return t.add(-1, b.HashKeys(idx, nil)[0], b.cols, idx, 0)
}

// keyBatch is a boxed key tuple as a one-row batch, with its columns'
// indexes.
func keyBatch(key Tuple) (*DeltaBatch, []int) {
	b := &DeltaBatch{}
	b.AppendInsert(key)
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	return b, idx
}

// find returns row i's group, whose key hashes to h, creating it if new.
func (t *GroupTable) find(h uint64, cols []Column, key []int, i int) int32 {
	p, g := t.index.First(h)
	for ; g >= 0; p, g = t.index.Next(p) {
		if t.index.Hash(g) == h && t.keyEq(g, cols, key, i) {
			return g
		}
	}
	return t.add(p, h, cols, key, i)
}

func (t *GroupTable) keyEq(g int32, cols []Column, key []int, i int) bool {
	for j, c := range key {
		k, w, s := cols[c].bitsAt(i)
		if !t.keys[j].keyEq(int(g), k, w, s) {
			return false
		}
	}
	return true
}

// add appends a group for row i's key, with zeroed accumulators, and
// seats it in index slot p (KeyIndex.Add).
func (t *GroupTable) add(p int, h uint64, cols []Column, key []int, i int) int32 {
	for j, c := range key {
		t.keys[j].push(cols[c].bitsAt(i))
	}
	for j := range t.Accs {
		t.Accs[j].grow()
	}
	for j := range t.last {
		t.last[j].push(KindNull, 0, "")
	}
	t.emitted = append(t.emitted, false)
	return t.index.Add(p, h)
}

// Reset empties the table, keeping lane and index capacity.
func (t *GroupTable) Reset() {
	for j := range t.keys {
		t.keys[j].truncate(0)
	}
	for j := range t.Accs {
		t.Accs[j].reset()
	}
	for j := range t.last {
		t.last[j].truncate(0)
	}
	t.emitted = t.emitted[:0]
	t.index.Reset()
	t.dirty.Reset()
	t.ckpt.Reset()
}

// KeyHash reports HashValue of group g's Tuple.Key.
func (t *GroupTable) KeyHash(g int32) uint64 { return t.index.Hash(g) }

// Key renders key column j of group g.
func (t *GroupTable) Key(g int32, j int, out *Scalar) { t.keys[j].scalar(int(g), out) }

// KeyValue is Key, boxed.
func (t *GroupTable) KeyValue(g int32, j int) Value { return t.keys[j].value(int(g)) }

// Emitted reports whether group g has emitted a result.
func (t *GroupTable) Emitted(g int32) bool { return t.emitted[g] }

// Last renders aggregate j's last emitted result for group g.
func (t *GroupTable) Last(g int32, j int, out *Scalar) { t.last[j].scalar(int(g), out) }

// LastValue is Last, boxed.
func (t *GroupTable) LastValue(g int32, j int) Value { return t.last[j].value(int(g)) }

// LastEqual reports whether aggregate j's last emitted result for group
// g equals s under ValueEq.
func (t *GroupTable) LastEqual(g int32, j int, s *Scalar) bool {
	l := &t.last[j]
	k, w, str := scalarBits(s)
	return eqBits(l.k[g], l.w[g], l.str(int(g)), k, w, str)
}

// SetLast records s as aggregate j's emitted result for group g and
// marks the group emitted.
func (t *GroupTable) SetLast(g int32, j int, s *Scalar) {
	k, w, str := scalarBits(s)
	t.last[j].set(int(g), k, w, str)
	t.emitted[g] = true
}

// SetLastValue is SetLast for a boxed value.
func (t *GroupTable) SetLastValue(g int32, j int, v Value) {
	k, w, str := valueBits(v)
	t.last[j].set(int(g), k, w, str)
	t.emitted[g] = true
}

// ClearLast forgets group g's emitted results.
func (t *GroupTable) ClearLast(g int32) {
	for j := range t.last {
		t.last[j].set(int(g), KindNull, 0, "")
	}
	t.emitted[g] = false
}

// Touch marks groups revised, for both the next flush and the next
// checkpoint.
func (t *GroupTable) Touch(gids []int32) {
	for _, g := range gids {
		t.dirty.Mark(g)
		t.ckpt.Mark(g)
	}
}

// Dirty lists the groups revised since the last ClearDirty, in the order
// they were first revised.
func (t *GroupTable) Dirty() []int32 { return t.dirty.List() }

// ClearDirty empties the flush dirty set.
func (t *GroupTable) ClearDirty() { t.dirty.Reset() }

// CkptDirty lists the groups revised since the last ClearCkptDirty, in
// the order they were first revised.
func (t *GroupTable) CkptDirty() []int32 { return t.ckpt.List() }

// ClearCkptDirty empties the checkpoint dirty set.
func (t *GroupTable) ClearCkptDirty() { t.ckpt.Reset() }

// GroupSet is a set of group ids: a bitmap for membership and a list for
// first-marked order. Dirty tracking marks groups in it.
type GroupSet struct {
	list []int32
	bits []uint64
}

// Mark adds group g.
func (d *GroupSet) Mark(g int32) {
	w := int(g) >> 6
	for w >= len(d.bits) {
		d.bits = append(d.bits, 0)
	}
	if m := uint64(1) << (uint(g) & 63); d.bits[w]&m == 0 {
		d.bits[w] |= m
		d.list = append(d.list, g)
	}
}

// List returns the marked groups in the order they were first marked.
func (d *GroupSet) List() []int32 { return d.list }

// Reset empties the set, keeping its capacity.
func (d *GroupSet) Reset() {
	if len(d.list) > len(d.bits) {
		clear(d.bits)
	} else {
		for _, g := range d.list {
			d.bits[int(g)>>6] = 0
		}
	}
	d.list = d.list[:0]
}

// AccLanes names the accumulator lanes an aggregate folds into.
type AccLanes uint8

const (
	AccF    AccLanes = 1 << iota // float64 per group (sum, avg's sum)
	AccN                         // int64 per group (count, sum's and avg's row count)
	AccFlag                      // bool per group (sum: a non-int argument was seen)
	AccBag                       // (value, count) rows per group (min, max, argmin)
)

// Acc is one aggregate's accumulator lanes in a GroupTable, indexed by
// group id. Only the lanes the aggregate named are grown; every new
// group starts zeroed.
type Acc struct {
	F    []float64
	N    []int64
	Flag []bool
	Bag  *Bag

	lanes AccLanes
}

func (a *Acc) grow() {
	if a.lanes&AccF != 0 {
		a.F = append(a.F, 0)
	}
	if a.lanes&AccN != 0 {
		a.N = append(a.N, 0)
	}
	if a.lanes&AccFlag != 0 {
		a.Flag = append(a.Flag, false)
	}
	if a.Bag != nil {
		a.Bag.head = append(a.Bag.head, -1)
		a.Bag.best = append(a.Bag.best, BagNone)
	}
}

func (a *Acc) reset() {
	a.F, a.N, a.Flag = a.F[:0], a.N[:0], a.Flag[:0]
	if a.Bag != nil {
		a.Bag.reset()
	}
}

// Bag holds (group, value) rows chained per group, each with a count and
// a float payload: min and max keep every distinct argument value with
// its multiplicity, so deleting the extremum exposes the next one
// (§3.3), and argmin keeps each id's value. A KeyIndex over bagHash
// finds a group's row for a value. Values compare by identity as keys of
// a Go map of boxed values would (1 and 1.0 are distinct rows).
//
// A row whose count drops to zero stays in its chain and in the index
// and is revived by the value's next arrival.
type Bag struct {
	vals  scalars
	group []int32
	next  []int32 // next row of the group's chain; -1 ends it
	// Count is the row's multiplicity (min/max) or presence (argmin).
	Count []int64
	// Num is the row's float payload (argmin's value).
	Num []float64

	head []int32 // per group: first chain row, -1 none
	best []int32 // per group: cached extreme row, or BagNone / BagStale

	index KeyIndex // rows by bagHash
}

// Sentinels of Bag.Best.
const (
	BagNone  int32 = -1 // the group has no live row
	BagStale int32 = -2 // the cached row was deleted: recompute
)

func (b *Bag) reset() {
	b.vals.truncate(0)
	b.group, b.next, b.Count, b.Num = b.group[:0], b.next[:0], b.Count[:0], b.Num[:0]
	b.head, b.best = b.head[:0], b.best[:0]
	b.index.Reset()
}

// Find returns group g's row for row i of v, creating it (count 0) if
// absent.
func (b *Bag) Find(g int32, v *Vec, i int) int32 {
	k, w, s := v.bitsAt(i)
	return b.find(g, k, w, s, true)
}

// Lookup is Find without the creation; ok is false when absent.
func (b *Bag) Lookup(g int32, v *Vec, i int) (int32, bool) {
	k, w, s := v.bitsAt(i)
	r := b.find(g, k, w, s, false)
	return r, r >= 0
}

// FindValue is Find for a boxed value.
func (b *Bag) FindValue(g int32, x Value) int32 {
	k, w, s := valueBits(x)
	return b.find(g, k, w, s, true)
}

func (b *Bag) find(g int32, k Kind, w uint64, s string, create bool) int32 {
	h := bagHash(g, k, w, s)
	p, r := b.index.First(h)
	for ; r >= 0; p, r = b.index.Next(p) {
		if b.index.Hash(r) == h && b.group[r] == g && rawEq(b.vals.k[r], b.vals.w[r], b.vals.str(int(r)), k, w, s) {
			return r
		}
	}
	if !create {
		return -1
	}
	r = b.index.Add(p, h)
	b.vals.push(k, w, s)
	b.group = append(b.group, g)
	b.next = append(b.next, b.head[g])
	b.head[g] = r
	b.Count = append(b.Count, 0)
	b.Num = append(b.Num, 0)
	return r
}

// bagHash mixes a group id with a value's identity (floats hash by
// value, so −0 and 0 meet as rawEq has them).
func bagHash(g int32, k Kind, w uint64, s string) uint64 {
	h := uint64(g)*0x9E3779B97F4A7C15 ^ uint64(k)<<56
	switch k {
	case KindString:
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
	case KindFloat:
		if w == 1<<63 { // −0
			w = 0
		}
		h ^= w
	default:
		h ^= w
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// First returns group g's first chain row, -1 when it has none.
func (b *Bag) First(g int32) int32 { return b.head[g] }

// Next returns the chain row after r, -1 at the end.
func (b *Bag) Next(r int32) int32 { return b.next[r] }

// Value renders row r's value.
func (b *Bag) Value(r int32, out *Scalar) { b.vals.scalar(int(r), out) }

// BoxedValue is Value, boxed.
func (b *Bag) BoxedValue(r int32) Value { return b.vals.value(int(r)) }

// Compare orders the values of rows r and q as ValueCompare does.
func (b *Bag) Compare(r, q int32) int {
	v := &b.vals
	return compareBits(v.k[r], v.w[r], v.str(int(r)), v.k[q], v.w[q], v.str(int(q)))
}

// Best reports group g's cached extreme row (or BagNone, BagStale).
func (b *Bag) Best(g int32) int32 { return b.best[g] }

// SetBest caches group g's extreme row.
func (b *Bag) SetBest(g, r int32) { b.best[g] = r }

// Clear zeroes every row of group g's chain and forgets its extreme.
func (b *Bag) Clear(g int32) {
	for r := b.head[g]; r >= 0; r = b.next[r] {
		b.Count[r], b.Num[r] = 0, 0
	}
	b.best[g] = BagNone
}
