package exec

import (
	"fmt"

	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// keyedStore is the keyed state of the hash join and of the fixpoint. A
// types.GroupTable with no aggregates indexes the keys: typed key lanes,
// open addressing on the checkpoint hash, one group id per key. Beside it
// each side — the join's left and right, the fixpoint's one relation —
// keeps a uda.TupleSet per group, which the operator's delta handler
// revises, and the groups whose set moved since the last checkpoint.
//
// Its checkpoint entries are [keyHash, tag, key, fields...], one per set
// tuple, with key in Tuple.Key's form; an emptied set leaves the
// tombstone [keyHash, tag, key] so recovery clears it. A single-column
// NaN key meets no earlier group: each such row gets a group of its own,
// as under a Go map keyed by the boxed value.
type keyedStore struct {
	tab   *types.GroupTable
	idx   []int // 0 … key columns − 1
	sides []keyedSide

	// gids, olds and sel are groupsOf's scratch.
	gids, olds, sel []int32
}

// keyedSide is one side's sets and dirty groups.
type keyedSide struct {
	tag types.Value
	// pages holds the sets by group id, setPage to a page, so a set never
	// moves while a handler holds it.
	pages [][]uda.TupleSet
	// dirty is nil when nothing reads the dirty groups (no checkpoint and
	// no stream changelog): touched then records nothing.
	dirty *types.GroupSet
}

const setPage = 256

// newKeyedStore builds an empty store for keys of nkey columns, with one
// side per tag, each recording dirty groups.
func newKeyedStore(nkey int, tags ...types.Value) *keyedStore {
	k := &keyedStore{tab: types.NewGroupTable(nkey, nil), idx: make([]int, nkey)}
	for j := range k.idx {
		k.idx[j] = j
	}
	for _, tag := range tags {
		k.sides = append(k.sides, keyedSide{tag: tag, dirty: &types.GroupSet{}})
	}
	return k
}

// reset empties the store, keeping each side's dirty tracking on or off.
func (k *keyedStore) reset() {
	k.tab.Reset()
	for s := range k.sides {
		side := &k.sides[s]
		for _, p := range side.pages {
			clear(p)
		}
		if side.dirty != nil {
			side.dirty.Reset()
		}
	}
}

// untrack stops side s recording dirty groups.
func (k *keyedStore) untrack(s int) { k.sides[s].dirty = nil }

// groupsOf finds the group of every row of b by its key columns and, when
// old is set, of every replace row's old image (olds is nil when b has
// none). The slices are the store's scratch, detached until release, so
// a re-entrant push takes fresh ones.
func (k *keyedStore) groupsOf(b *types.DeltaBatch, key []int, old bool) (gids, olds []int32) {
	gids, k.gids = k.groups(b, key, false, nil, k.gids), nil
	if !old || !b.HasOld() {
		return gids, nil
	}
	sel := k.sel[:0]
	for i := 0; i < b.Len(); i++ {
		if b.Op(i) == types.OpReplace {
			sel = append(sel, int32(i))
		}
	}
	if len(sel) > 0 {
		olds, k.olds = k.groups(b, key, true, sel, k.olds), nil
	}
	k.sel = sel[:0]
	return gids, olds
}

// release hands groupsOf's slices back.
func (k *keyedStore) release(gids, olds []int32) {
	k.gids = gids[:0]
	if olds != nil {
		k.olds = olds[:0]
	}
}

// groups is GroupTable.Groups, with each NaN key row in a fresh group.
func (k *keyedStore) groups(b *types.DeltaBatch, key []int, old bool, sel, gids []int32) []int32 {
	if len(key) != 1 || b.Len() == 0 {
		return k.tab.Groups(b, key, old, sel, gids)
	}
	col := b.Col(key[0])
	if old {
		col = b.OldCol(key[0])
	}
	var nan []int32
	if kind := col.Kind(); kind == types.KindFloat || kind == types.KindNull { // KindNull: mixed kinds
		for i := range selRows(sel, b.Len()) {
			if nanAt(col, int(i)) {
				nan = append(nan, i)
			}
		}
	}
	if nan == nil {
		return k.tab.Groups(b, key, old, sel, gids)
	}
	keep := make([]int32, 0, b.Len())
	for i := range selRows(sel, b.Len()) {
		if !nanAt(col, int(i)) {
			keep = append(keep, i)
		}
	}
	gids = k.tab.Groups(b, key, old, keep, gids)
	for _, i := range nan {
		gids[i] = k.tab.Fresh(types.Tuple{col.Value(int(i))})
	}
	return gids
}

// selRows yields sel's rows, or all n rows when sel is nil.
func selRows(sel []int32, n int) func(func(int32) bool) {
	return func(yield func(int32) bool) {
		if sel != nil {
			for _, i := range sel {
				if !yield(i) {
					return
				}
			}
			return
		}
		for i := 0; i < n; i++ {
			if !yield(int32(i)) {
				return
			}
		}
	}
}

// nanAt reports whether row i of c holds a float NaN.
func nanAt(c *types.Column, i int) bool {
	if f, ok := c.Float(i); ok {
		return f != f
	}
	return c.Kind() == types.KindNull && nanValue(c.Value(i))
}

// nanValue reports whether v is a float NaN.
func nanValue(v types.Value) bool {
	f, ok := v.(float64)
	return ok && f != f
}

// set returns side s's set for group g.
func (k *keyedStore) set(s int, g int32) *uda.TupleSet {
	side := &k.sides[s]
	p := int(g) / setPage
	for p >= len(side.pages) {
		side.pages = append(side.pages, make([]uda.TupleSet, setPage))
	}
	return &side.pages[p][int(g)%setPage]
}

// version is set's Version when side s records dirty groups, and 0
// otherwise, so an untracked side's set is not read.
func (k *keyedStore) version(s int, set *uda.TupleSet) int {
	if k.sides[s].dirty == nil {
		return 0
	}
	return set.Version()
}

// touched marks group g of side s dirty when its set moved from version
// v0.
func (k *keyedStore) touched(s int, g int32, set *uda.TupleSet, v0 int) {
	if d := k.sides[s].dirty; d != nil && set.Version() != v0 {
		d.Mark(g)
	}
}

// all yields side s's sets, in group order.
func (k *keyedStore) all(s int) func(func(*uda.TupleSet) bool) {
	return func(yield func(*uda.TupleSet) bool) {
		for g := 0; g < k.tab.Len(); g++ {
			if g/setPage >= len(k.sides[s].pages) || !yield(k.set(s, int32(g))) {
				return
			}
		}
	}
}

// dirty lists side s's dirty groups in the order they were first revised.
func (k *keyedStore) dirty(s int) []int32 {
	if d := k.sides[s].dirty; d != nil {
		return d.List()
	}
	return nil
}

func (k *keyedStore) clearDirty(s int) {
	if d := k.sides[s].dirty; d != nil {
		d.Reset()
	}
}

// key renders group g's key as Tuple.Key does.
func (k *keyedStore) key(g int32) types.Value {
	t := make(types.Tuple, len(k.idx))
	for j := range t {
		t[j] = k.tab.KeyValue(g, j)
	}
	return t.Key(k.idx)
}

// appendDirty appends side s's dirty groups' checkpoint entries to out
// and clears its dirty set.
func (k *keyedStore) appendDirty(s int, out []types.Tuple) []types.Tuple {
	tag := k.sides[s].tag
	for _, g := range k.dirty(s) {
		h, key, set := types.Value(int64(k.tab.KeyHash(g))), k.key(g), k.set(s, g)
		if set.Len() == 0 {
			out = append(out, types.NewTuple(h, tag, key))
			continue
		}
		for i := 0; i < set.Len(); i++ {
			e := append(make(types.Tuple, 0, 3+set.Width(i)), h, tag, key)
			for c := 0; c < set.Width(i); c++ {
				e = append(e, set.Value(i, c))
			}
			out = append(out, e)
		}
	}
	k.clearDirty(s)
	return out
}

// restore applies one checkpoint entry of at least three fields to side
// s. fresh holds the groups already restored from the entry's stratum: a
// group's first entry in a stratum resets its set.
func (k *keyedStore) restore(s int, e types.Tuple, fresh map[int32]bool) error {
	key, ok := types.SplitKey(e[2], len(k.idx))
	if !ok {
		return fmt.Errorf("bad key in %v", e)
	}
	var g int32
	if len(key) == 1 && nanValue(key[0]) {
		g = k.tab.Fresh(key)
	} else {
		g = k.tab.Group(key)
	}
	set := k.set(s, g)
	if !fresh[g] {
		fresh[g] = true
		*set = uda.TupleSet{}
	}
	if len(e) > 3 {
		set.Add(e[3:])
	}
	return nil
}
