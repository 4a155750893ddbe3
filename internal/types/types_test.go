package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindOfAndParse(t *testing.T) {
	cases := []struct {
		v    Value
		want Kind
	}{
		{nil, KindNull},
		{int64(3), KindInt},
		{3.5, KindFloat},
		{"x", KindString},
		{true, KindBool},
	}
	for _, c := range cases {
		if got := KindOf(c.v); got != c.want {
			t.Errorf("KindOf(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	for _, name := range []string{"Integer", "Double", "String", "Boolean"} {
		if _, err := ParseKind(name); err != nil {
			t.Errorf("ParseKind(%q): %v", name, err)
		}
	}
	if _, err := ParseKind("Blob"); err == nil {
		t.Error("ParseKind(Blob) should fail")
	}
}

func TestValueCoercions(t *testing.T) {
	if v, ok := AsInt(3.9); !ok || v != 3 {
		t.Errorf("AsInt(3.9) = %d, %v", v, ok)
	}
	if v, ok := AsFloat(int64(4)); !ok || v != 4.0 {
		t.Errorf("AsFloat(4) = %f, %v", v, ok)
	}
	if v, ok := AsBool(int64(2)); !ok || !v {
		t.Errorf("AsBool(2) = %v, %v", v, ok)
	}
	if AsString(1.5) != "1.5" || AsString(int64(-7)) != "-7" || AsString(nil) != "" {
		t.Error("AsString rendering wrong")
	}
	v, err := ValueFromString("42", KindInt)
	if err != nil || v.(int64) != 42 {
		t.Errorf("ValueFromString int: %v %v", v, err)
	}
	if _, err := ValueFromString("xyz", KindFloat); err == nil {
		t.Error("ValueFromString should reject bad float")
	}
}

func TestValueEqAndCompare(t *testing.T) {
	if !ValueEq(int64(1), 1.0) {
		t.Error("1 == 1.0 must hold across kinds")
	}
	if ValueEq(int64(1), "1") {
		t.Error("int and string must not be equal")
	}
	if ValueCompare(int64(1), 2.0) != -1 || ValueCompare("b", "a") != 1 {
		t.Error("ValueCompare ordering wrong")
	}
	if ValueCompare(nil, nil) != 0 || ValueCompare(nil, int64(0)) != -1 {
		t.Error("nil ordering wrong")
	}
	if ValueCompare(true, false) != 1 {
		t.Error("bool ordering wrong")
	}
}

func TestHashValueIntegralFloatFoldsToInt(t *testing.T) {
	if HashValue(int64(7)) != HashValue(7.0) {
		t.Error("hash(7) must equal hash(7.0) for consistent rehash routing")
	}
	if HashValue(int64(7)) == HashValue(int64(8)) {
		t.Error("distinct ints should hash differently")
	}
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(int64(1), "a", 2.5)
	cl := tp.Clone()
	cl[0] = int64(9)
	if tp[0].(int64) != 1 {
		t.Error("Clone must not alias")
	}
	if !tp.Equal(NewTuple(int64(1), "a", 2.5)) {
		t.Error("Equal failed")
	}
	if tp.Equal(NewTuple(int64(1), "a")) {
		t.Error("Equal must check length")
	}
	if got := tp.Project([]int{2, 0}); !got.Equal(NewTuple(2.5, int64(1))) {
		t.Errorf("Project = %v", got)
	}
	if tp.Key([]int{0}) != int64(1) {
		t.Error("single-column Key should be the raw value")
	}
	if k := tp.Key([]int{0, 1}); k != NewTuple(1.0, "a").Key([]int{0, 1}) || k == NewTuple("1", "a").Key([]int{0, 1}) {
		t.Errorf("composite Key = %q: must fold 1.0 onto 1 and keep \"1\" apart", k)
	}
	// Integral float keys fold to int so groupings match across kinds.
	if NewTuple(3.0).Key([]int{0}) != int64(3) {
		t.Error("integral float key must normalize to int64")
	}
}

func TestSchemaResolution(t *testing.T) {
	s := MustSchema("srcId:Integer", "pr:Double")
	if s.ColIndex("pr") != 1 || s.ColIndex("srcId") != 0 {
		t.Error("ColIndex basic failed")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("missing column must be -1")
	}
	q := s.Rename("graph")
	if q.ColIndex("graph.srcId") != 0 {
		t.Error("qualified lookup failed")
	}
	if q.ColIndex("srcId") != 0 {
		t.Error("unqualified lookup against qualified schema failed")
	}
	if s.ColIndex("graph.pr") != 1 {
		t.Error("qualified name against unqualified schema should fall back to suffix")
	}
	cat := s.Concat(q)
	if cat.Len() != 4 {
		t.Errorf("Concat len = %d", cat.Len())
	}
	if cat.String() == "" || len(cat.Names()) != 4 {
		t.Error("schema rendering")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on bad spec")
		}
	}()
	MustSchema("noType")
}

func TestDeltaConstructors(t *testing.T) {
	tp := NewTuple(int64(1))
	if d := Insert(tp); d.Op != OpInsert {
		t.Error("Insert op")
	}
	if d := Delete(tp); d.Op != OpDelete {
		t.Error("Delete op")
	}
	r := Replace(tp, NewTuple(int64(2)))
	if r.Op != OpReplace || r.Old[0].(int64) != 1 || r.Tup[0].(int64) != 2 {
		t.Error("Replace wiring")
	}
	if d := Update(tp); d.Op != OpUpdate {
		t.Error("Update op")
	}
	ds := Inserts(tp, NewTuple(int64(2)))
	if len(ds) != 2 || ds[1].Tup[0].(int64) != 2 {
		t.Error("Inserts helper")
	}
	if Replace(tp, tp).String() == "" || Insert(tp).String() == "" {
		t.Error("String rendering")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ds := []Delta{
		Insert(NewTuple(int64(-300), 2.75, "héllo", true, nil)),
		Delete(NewTuple(int64(0))),
		Replace(NewTuple("old"), NewTuple("new")),
		Update(NewTuple(int64(1), -0.01)),
	}
	buf := appendRecords(ds)
	if len(buf) != EncodedSize(ds) {
		t.Fatalf("EncodedSize=%d, actual=%d", EncodedSize(ds), len(buf))
	}
	got, err := decodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("len=%d", len(got))
	}
	for i := range ds {
		if got[i].Op != ds[i].Op || !got[i].Tup.Equal(ds[i].Tup) {
			t.Errorf("delta %d mismatch: %v vs %v", i, got[i], ds[i])
		}
	}
	if !got[2].Old.Equal(ds[2].Old) {
		t.Error("replace old tuple lost")
	}
}

func TestCodecErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty value decode should fail")
	}
	if _, _, err := DecodeValue([]byte{byte(KindFloat), 1, 2}); err == nil {
		t.Error("short float should fail")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, _, err := DecodeDelta(nil); err == nil {
		t.Error("empty delta should fail")
	}
	if _, _, err := DecodeTuple([]byte{5, byte(KindInt)}); err == nil {
		t.Error("short tuple should fail")
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		buf := AppendValue(nil, f)
		v, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) || v.(float64) != f {
			t.Errorf("round trip %v failed: %v %v", f, v, err)
		}
	}
	buf := AppendValue(nil, math.NaN())
	v, _, err := DecodeValue(buf)
	if err != nil || !math.IsNaN(v.(float64)) {
		t.Error("NaN round trip failed")
	}
}

// appendRecords lays ds out the way EncodedSize counts it: a uvarint
// count, then one AppendDelta record per delta (the WAL's per-record
// codec, batched).
func appendRecords(ds []Delta) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ds)))
	for _, d := range ds {
		buf = AppendDelta(buf, d)
	}
	return buf
}

func decodeRecords(buf []byte) ([]Delta, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, fmt.Errorf("bad count")
	}
	var out []Delta
	for i := uint64(0); i < n; i++ {
		d, used, err := DecodeDelta(buf[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		off += used
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%d trailing bytes", len(buf)-off)
	}
	return out, nil
}

// Property: any batch of random tuples round-trips through the per-record
// codec and EncodedSize always matches the encoded length.
func TestCodecRoundTripProperty(t *testing.T) {
	gen := func(r *rand.Rand) Delta {
		n := r.Intn(5)
		tup := make(Tuple, n)
		for i := range tup {
			switch r.Intn(5) {
			case 0:
				tup[i] = r.Int63() - (1 << 62)
			case 1:
				tup[i] = r.NormFloat64() * 1e6
			case 2:
				tup[i] = randString(r)
			case 3:
				tup[i] = r.Intn(2) == 0
			default:
				tup[i] = nil
			}
		}
		switch r.Intn(4) {
		case 0:
			return Insert(tup)
		case 1:
			return Delete(tup)
		case 2:
			return Update(tup)
		default:
			return Replace(tup.Clone(), tup)
		}
	}
	f := func(seed int64, count uint8) bool {
		r := rand.New(rand.NewSource(seed))
		ds := make([]Delta, int(count)%32)
		if len(ds) == 0 {
			ds = []Delta{Insert(NewTuple())}
		}
		for i := range ds {
			ds[i] = gen(r)
		}
		buf := appendRecords(ds)
		if len(buf) != EncodedSize(ds) {
			return false
		}
		got, err := decodeRecords(buf)
		if err != nil || len(got) != len(ds) {
			return false
		}
		for i := range ds {
			if got[i].Op != ds[i].Op || !reflect.DeepEqual(got[i].Tup, ds[i].Tup) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// Property: over multi-column rows full of NULLs, empty strings, separator
// bytes and 1 vs 1.0, the columnar KeyAt equals Tuple.Key, HashKeys
// equals the row's HashKey, and two rows share a composite key exactly
// when their key columns are Equal.
func TestCompositeKeyProperty(t *testing.T) {
	strs := []Value{nil, "", "\x1f", "a", "a\x1fb", "b\x1fc", "1", "c"}
	mixed := append([]Value{int64(1), 1.0, 1.5, int64(-1), true}, strs...)
	r := rand.New(rand.NewSource(41))
	owner := map[Value]Tuple{} // composite key → the key columns that made it
	for trial := 0; trial < 400; trial++ {
		arity := 2 + r.Intn(3)
		pools := make([][]Value, arity)
		for j := range pools {
			pools[j] = strs // a typed string lane, NULLs aside
			if r.Intn(2) == 0 {
				pools[j] = mixed
			}
		}
		rows := make([]Delta, 1+r.Intn(20))
		for i := range rows {
			tup := make(Tuple, arity)
			for j := range tup {
				tup[j] = pools[j][r.Intn(len(pools[j]))]
			}
			rows[i] = Insert(tup)
		}
		b, _ := FromDeltas(rows)
		key := r.Perm(arity)[:2+r.Intn(arity-1)]
		// The group table keys rows from their lanes: two rows share a
		// group exactly when they share a composite key, and the group's
		// hash is the key's.
		tab := NewGroupTable(len(key), nil)
		gids := tab.Groups(b, key, false, nil, nil)
		hs := b.HashKeys(key, nil)
		group := map[Value]int32{}
		for i, d := range rows {
			k := d.Tup.Key(key)
			if g, ok := group[k]; ok && g != gids[i] {
				t.Fatalf("row %v key %v: group %d, but key %q is group %d", d.Tup, key, gids[i], k, g)
			}
			group[k] = gids[i]
			if got, want := tab.KeyHash(gids[i]), HashValue(k); got != want {
				t.Fatalf("row %v key %v: group hash %#x != HashValue(Key) %#x", d.Tup, key, got, want)
			}
			if got, want := hs[i], b.Row(i, nil).HashKey(key); got != want {
				t.Fatalf("row %v key %v: HashKeys %#x != Row().HashKey %#x", d.Tup, key, got, want)
			}
			cols := d.Tup.Project(key)
			if prev, ok := owner[k]; ok && !prev.Equal(cols) {
				t.Fatalf("key columns %v and %v share composite key %q", prev, cols, k)
			}
			owner[k] = cols
		}
		if len(group) != len(distinct(gids)) {
			t.Fatalf("key %v: %d composite keys in %d groups", key, len(group), len(distinct(gids)))
		}
	}
}

func distinct(gids []int32) map[int32]bool {
	out := map[int32]bool{}
	for _, g := range gids {
		out[g] = true
	}
	return out
}

// Property: HashKey is invariant under changes to non-key columns.
func TestHashKeyProperty(t *testing.T) {
	f := func(a, b int64, s string) bool {
		t1 := NewTuple(a, s, b)
		t2 := NewTuple(a, s+"x", b+1)
		return t1.HashKey([]int{0}) == t2.HashKey([]int{0})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
