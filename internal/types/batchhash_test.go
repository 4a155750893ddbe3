package types

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// hashFloat draws the floats a routing hash can trip on: −0.0, NaN, the
// infinities, integral floats (which hash like the int), floats just past
// int64's range, and ordinary fractions.
func hashFloat(r *rand.Rand) float64 {
	switch r.Intn(9) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1 - 2*r.Intn(2))
	case 3:
		return float64(r.Intn(9) - 4)
	case 4:
		return -9223372036854775808.0 // exactly MinInt64
	case 5:
		return 1e19
	default:
		return r.NormFloat64()
	}
}

// hashLaneValue draws a value for lane shape lane: 0 ints, 1 floats,
// 2 strings, 3 bools, 4 a mixed lane of all of them.
func hashLaneValue(r *rand.Rand, lane int) Value {
	switch lane {
	case 0:
		return int64(r.Intn(7) - 3)
	case 1:
		return hashFloat(r)
	case 2:
		return fmt.Sprintf("s%d", r.Intn(4))
	case 3:
		return r.Intn(2) == 0
	default:
		return hashLaneValue(r, r.Intn(4))
	}
}

// Property: the batch routing hashes are bit-identical to hashing the
// boxed rows — HashKeys to Tuple.HashKey over single- and multi-column
// keys, OldHashKeys to the replace rows' old images' HashKey, HashRows to
// Tuple.Hash — over int, float, string, bool and mixed lanes, with and
// without NULLs, on built and on decoded (lazy) batches.
func TestBatchHashesMatchTuple(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var dst []uint64
	for trial := 0; trial < 800; trial++ {
		arity := 1 + r.Intn(4)
		lanes := make([]int, arity)
		nulls := make([]bool, arity)
		for j := range lanes {
			lanes[j] = r.Intn(5)
			nulls[j] = r.Intn(2) == 0
		}
		tuple := func() Tuple {
			tup := make(Tuple, arity)
			for j := range tup {
				if !nulls[j] || r.Intn(5) > 0 {
					tup[j] = hashLaneValue(r, lanes[j])
				}
			}
			return tup
		}
		rows := make([]Delta, 1+r.Intn(40))
		for i := range rows {
			switch r.Intn(4) {
			case 0:
				rows[i] = Insert(tuple())
			case 1:
				rows[i] = Delete(tuple())
			case 2:
				rows[i] = Update(tuple())
			default:
				rows[i] = Replace(tuple(), tuple())
			}
		}
		b, _ := FromDeltas(rows)
		if r.Intn(2) == 0 {
			dec, _, err := DecodeDeltaBatch(AppendDeltaBatch(nil, b))
			if err != nil {
				t.Fatal(err)
			}
			b = dec
		}
		keys := [][]int{nil, r.Perm(arity)}
		for c := 0; c < arity; c++ {
			keys = append(keys, []int{c})
		}
		for _, key := range keys {
			dst = b.HashKeys(key, dst)
			for i, d := range rows {
				if want := d.Tup.HashKey(key); dst[i] != want {
					t.Fatalf("trial %d key %v row %v: HashKeys %#x, Tuple.HashKey %#x", trial, key, d.Tup, dst[i], want)
				}
			}
			if !b.HasOld() {
				continue
			}
			dst = b.OldHashKeys(key, dst)
			for i, d := range rows {
				if d.Op != OpReplace {
					continue
				}
				if want := d.Old.HashKey(key); dst[i] != want {
					t.Fatalf("trial %d key %v old image %v: OldHashKeys %#x, Tuple.HashKey %#x", trial, key, d.Old, dst[i], want)
				}
			}
		}
		dst = b.HashRows(dst)
		for i, d := range rows {
			if want := d.Tup.Hash(); dst[i] != want {
				t.Fatalf("trial %d row %v: HashRows %#x, Tuple.Hash %#x", trial, d.Tup, dst[i], want)
			}
		}
	}
}

// Hashing a batch boxes nothing: over typed lanes (NULLs included) and
// multi-column keys, a reused destination makes it allocation-free.
func TestBatchHashesDoNotAllocate(t *testing.T) {
	b := &DeltaBatch{}
	for i := 0; i < 256; i++ {
		var s Value = fmt.Sprintf("k%d", i%7)
		if i%5 == 0 {
			s = nil
		}
		b.Append(Update(NewTuple(int64(i*1000), float64(i)/3, s, i%2 == 0)))
	}
	var dst []uint64
	for _, key := range [][]int{{0}, {1}, {2}, {0, 1, 2, 3}} {
		dst = b.HashKeys(key, dst)
		if allocs := testing.AllocsPerRun(20, func() { dst = b.HashKeys(key, dst) }); allocs != 0 {
			t.Fatalf("key %v: HashKeys allocates %v times", key, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { dst = b.HashRows(dst) }); allocs != 0 {
		t.Fatalf("HashRows allocates %v times", allocs)
	}
}
