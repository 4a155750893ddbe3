package types

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The reference model of GroupTable.Groups: the per-row lookup the table
// used before it hashed a batch at a time. Each row's key is hashed on
// its own (hashAt for one column, the composite key's encoded bytes
// otherwise) and compared with the general keyEq.

// findRow returns row i's group, creating it if new.
func (t *GroupTable) findRow(cols []Column, key []int, i int) int32 {
	var h uint64
	if len(key) == 1 {
		h = cols[key[0]].hashAt(i)
	} else {
		var buf []byte
		for _, c := range key {
			k, w, s := cols[c].bitsAt(i)
			buf = appendKeyBits(buf, k, w, s)
		}
		h = hashKeyBytes(buf)
	}
	p, g := t.index.First(h)
	for ; g >= 0; p, g = t.index.Next(p) {
		if t.index.Hash(g) == h && t.keyEq(g, cols, key, i) {
			return g
		}
	}
	return t.add(p, h, cols, key, i)
}

// groupsRow is Groups through findRow.
func (t *GroupTable) groupsRow(b *DeltaBatch, key []int, old bool, sel []int32, gids []int32) []int32 {
	gids = grow(gids, b.Len())
	cols := b.cols
	if old {
		cols = b.old
	}
	for _, i := range selOrAll(sel, b.Len()) {
		gids[i] = t.findRow(cols, key, int(i))
	}
	return gids
}

// freshRow is Fresh with the boxed key's HashValue.
func (t *GroupTable) freshRow(key Tuple) int32 {
	b, idx := keyBatch(key)
	return t.add(-1, HashValue(key.Key(idx)), b.cols, idx, 0)
}

// appendKeyBits is appendKeyPart for an unboxed scalar.
func appendKeyBits(buf []byte, k Kind, w uint64, s string) []byte {
	k, w = normBits(k, w)
	switch k {
	case KindInt:
		return binary.LittleEndian.AppendUint64(append(buf, 1), w)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(buf, 2), w)
	case KindString:
		buf = binary.AppendUvarint(append(buf, 3), uint64(len(s)))
		return append(buf, s...)
	case KindBool:
		return append(buf, 4, byte(w))
	}
	return append(buf, 0)
}

// hashKeyBytes is HashValue of a composite key's encoding as a string.
func hashKeyBytes(b []byte) uint64 {
	h := fnvByte(fnvOffset, 3)
	for _, c := range b {
		h = fnvByte(h, c)
	}
	return h
}

func selOrAll(sel []int32, n int) []int32 {
	if sel != nil {
		return sel
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// collideA and collideB are distinct int keys whose HashValue is equal
// (0x5000db9b5ebd1785), found by a rho search over the int hash: a probe
// that takes a hash match for a key match puts them in one group.
const (
	collideA int64 = 9150656745763858286
	collideB int64 = 4938609024512486539
)

// fuzzPools are the value sets a column draws from: typed lanes with and
// without NULLs, and a mixed lane over every kind. Each covers the keys
// that meet across representations: int 3 and float 3.0, 0 and −0, the
// int64 minimum and −2^63, NaN (which meets only its own bits), ±Inf.
var fuzzPools = [][]Value{
	{int64(0), int64(1), int64(3), int64(-1), collideA, collideB, int64(math.MinInt64)},
	{nil, int64(0), int64(3), collideA, collideB},
	{"", "a", "b", "ab", "\x00", "ba"},
	{nil, "", "a", "b"},
	{3.0, 0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -math.Exp2(63)},
	{true, false, nil},
	{nil, int64(3), 3.0, math.Copysign(0, -1), int64(0), math.NaN(), math.Inf(-1), "", "a", true, false,
		collideA, collideB, int64(math.MinInt64), -math.Exp2(63)},
}

// fuzzInput reads choices from the fuzzer's bytes, then from a generator
// seeded by them once they run out.
type fuzzInput struct {
	data []byte
	rng  *rand.Rand
}

func (in *fuzzInput) n(k int) int {
	if len(in.data) > 0 {
		c := in.data[0]
		in.data = in.data[1:]
		return int(c) % k
	}
	return in.rng.Intn(k)
}

// FuzzGroupTableGroups checks the batch path of Groups (one batch hash,
// typed probes) against the per-row findRow: the same group ids, created
// in the same order with the same KeyHash, over random batches, selections,
// old images, Group and Fresh calls, and tables that grow mid-batch.
func FuzzGroupTableGroups(f *testing.F) {
	if HashValue(collideA) != HashValue(collideB) {
		f.Fatal("collideA and collideB no longer collide")
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := int64(len(data))
		for _, c := range data {
			seed = seed*31 + int64(c)
		}
		in := &fuzzInput{data: data, rng: rand.New(rand.NewSource(seed))}
		ncol := 1 + in.n(3)
		pools := make([][]Value, ncol)
		for j := range pools {
			pools[j] = fuzzPools[in.n(len(fuzzPools))]
		}
		key := rand.New(rand.NewSource(seed)).Perm(ncol)[:1+in.n(ncol)]
		got, want := NewGroupTable(len(key), nil), NewGroupTable(len(key), nil)
		row := func() Tuple {
			tup := make(Tuple, ncol)
			for j := range tup {
				tup[j] = pools[j][in.n(len(pools[j]))]
			}
			return tup
		}
		for step := 0; step < 6; step++ {
			switch in.n(8) {
			case 0:
				k := row().Project(key)
				b, idx := keyBatch(k)
				if g, w := got.Group(k), want.groupsRow(b, idx, false, nil, nil)[0]; g != w {
					t.Fatalf("Group(%v) = %d, model %d", k, g, w)
				}
			case 1:
				k := row().Project(key)
				if g, w := got.Fresh(k), want.freshRow(k); g != w {
					t.Fatalf("Fresh(%v) = %d, model %d", k, g, w)
				}
			default:
				nrows := 1 + in.n(40)
				if in.n(3) == 0 {
					nrows *= 16 // past a hash chunk, and past several index growths
				}
				b := &DeltaBatch{}
				var replaces []int32
				for i := 0; i < nrows; i++ {
					d := Insert(row())
					if in.n(4) == 0 {
						d = Delta{Op: OpReplace, Tup: d.Tup, Old: row()}
						replaces = append(replaces, int32(i))
					}
					b.Append(d)
				}
				var sel []int32
				if in.n(2) == 0 {
					sel = []int32{}
					for i := 0; i < nrows; i++ {
						if in.n(3) != 0 {
							sel = append(sel, int32(i))
						}
					}
				}
				checkGroups(t, got, want, b, key, false, sel)
				if len(replaces) > 0 {
					checkGroups(t, got, want, b, key, true, replaces)
				}
			}
			checkTables(t, got, want)
		}
	})
}

// checkGroups runs one Groups call on got and the model on want and
// compares the selected rows' group ids.
func checkGroups(t *testing.T, got, want *GroupTable, b *DeltaBatch, key []int, old bool, sel []int32) {
	t.Helper()
	g := got.Groups(b, key, old, sel, nil)
	w := want.groupsRow(b, key, old, sel, nil)
	for _, i := range selOrAll(sel, b.Len()) {
		if g[i] != w[i] {
			tup := b.Row(int(i), nil)
			if old {
				tup = b.OldRow(int(i), nil)
			}
			t.Fatalf("old=%v row %d %v key %v: group %d, model %d", old, i, tup, key, g[i], w[i])
		}
	}
}

// checkTables compares the two tables group by group: count, creation
// order, key values and KeyHash.
func checkTables(t *testing.T, got, want *GroupTable) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d groups, model %d", got.Len(), want.Len())
	}
	for g := int32(0); int(g) < got.Len(); g++ {
		if got.KeyHash(g) != want.KeyHash(g) {
			t.Fatalf("group %d: KeyHash %#x, model %#x", g, got.KeyHash(g), want.KeyHash(g))
		}
		for j := range got.keys {
			a, b := &got.keys[j], &want.keys[j]
			if a.k[g] != b.k[g] || a.w[g] != b.w[g] || a.str(int(g)) != b.str(int(g)) {
				t.Fatalf("group %d key %d: %v, model %v", g, j, got.KeyValue(g, j), want.KeyValue(g, j))
			}
		}
	}
}
