package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/types"
)

// rowMerge is the row Compactor's δ-merge for a CompactMerge declaration:
// the oracle the store's in-lane merge is checked against. Declared
// columns fold with types.FoldValues, key columns are equal by
// construction, every other column must be value-equal.
func rowMerge(key []int, merge map[int]string) MergeFunc {
	if len(merge) == 0 {
		return nil
	}
	isKey := map[int]bool{}
	for _, c := range key {
		isKey[c] = true
	}
	return func(a, b types.Delta) (types.Delta, bool) {
		if len(a.Tup) != len(b.Tup) {
			return a, false
		}
		out := a.Tup.Clone()
		for i := range out {
			if isKey[i] {
				continue
			}
			f, declared := types.ParseFold(merge[i])
			if !declared {
				if !types.ValueEq(a.Tup[i], b.Tup[i]) {
					return a, false
				}
				continue
			}
			m, ok := types.FoldValues(f, a.Tup[i], b.Tup[i])
			if !ok {
				return a, false
			}
			out[i] = m
		}
		return types.Update(out), true
	}
}

// keyedView is what a keyed downstream consumer makes of a delta stream:
// a signed multiset of the +/−/→ images, and per group of δ() deltas
// (grouped by every undeclared column) the declared columns folded with
// their aggregate. Two streams that differ only by sound compaction give
// equal views.
type keyedView struct {
	rows  map[string]int
	folds map[string][]float64 // group → one accumulator per declared column
	seen  map[string][]int     // group → per declared column: non-NULL values folded
	merge map[int]string
}

func newKeyedView(merge map[int]string) *keyedView {
	return &keyedView{rows: map[string]int{}, folds: map[string][]float64{}, seen: map[string][]int{}, merge: merge}
}

func render(t types.Tuple, skip map[int]string) string {
	var sb strings.Builder
	for i, v := range t {
		if _, ok := skip[i]; ok {
			continue
		}
		if v == nil {
			sb.WriteString("\x00")
		}
		sb.WriteString(types.AsString(v))
		sb.WriteByte(0x1f)
	}
	return sb.String()
}

func (v *keyedView) bump(k string, by int) {
	if v.rows[k] += by; v.rows[k] == 0 {
		delete(v.rows, k)
	}
}

func (v *keyedView) apply(ds []types.Delta) {
	for _, d := range ds {
		switch d.Op {
		case types.OpInsert:
			v.bump("+"+render(d.Tup, nil), 1)
		case types.OpDelete:
			v.bump("+"+render(d.Tup, nil), -1)
		case types.OpReplace:
			v.bump("+"+render(d.Old, nil), -1)
			v.bump("+"+render(d.Tup, nil), 1)
		case types.OpUpdate:
			if len(v.merge) == 0 {
				v.bump("δ"+render(d.Tup, nil), 1)
				continue
			}
			g := render(d.Tup, v.merge)
			if v.folds[g] == nil {
				v.folds[g] = make([]float64, len(d.Tup))
				v.seen[g] = make([]int, len(d.Tup))
			}
			for c, name := range v.merge {
				x, ok := types.AsFloat(d.Tup[c])
				if d.Tup[c] == nil || !ok {
					v.bump(fmt.Sprintf("δnull%d|%s", c, g), 1)
					continue
				}
				acc, n := &v.folds[g][c], &v.seen[g][c]
				switch {
				case *n == 0:
					*acc = x
				case name == "sum":
					*acc += x
				case name == "min":
					*acc = min(*acc, x)
				case name == "max":
					*acc = max(*acc, x)
				}
				*n++
			}
		}
	}
}

func (v *keyedView) String() string {
	return fmt.Sprintf("rows=%v folds=%v", v.rows, v.folds)
}

func (v *keyedView) equal(o *keyedView) bool {
	return fmt.Sprint(v.rows) == fmt.Sprint(o.rows) && fmt.Sprint(v.folds) == fmt.Sprint(o.folds)
}

// storeCase is one shape of stream: its routing key (nil = broadcast,
// the whole tuple), the declared merges, and a tuple generator.
type storeCase struct {
	name  string
	key   []int
	merge map[int]string
	gen   func(r *rand.Rand) types.Tuple
}

// halves are exactly summable in any order, so folded and unfolded
// streams agree bit for bit.
func half(r *rand.Rand) float64 { return float64(r.Intn(40)) / 2 }

var storeCases = []storeCase{
	{name: "int-key", key: []int{0}, gen: func(r *rand.Rand) types.Tuple {
		return types.NewTuple(int64(r.Intn(12)), half(r))
	}},
	{name: "int-key-sum", key: []int{0}, merge: map[int]string{1: "sum"}, gen: func(r *rand.Rand) types.Tuple {
		return types.NewTuple(int64(r.Intn(12)), half(r))
	}},
	{name: "int-key-min-nulls", key: []int{0}, merge: map[int]string{1: "min"}, gen: func(r *rand.Rand) types.Tuple {
		if r.Intn(6) == 0 {
			return types.NewTuple(int64(r.Intn(12)), nil)
		}
		return types.NewTuple(int64(r.Intn(12)), half(r))
	}},
	{name: "multi-key-strings", key: []int{0, 1}, merge: map[int]string{2: "max", 3: "sum"}, gen: func(r *rand.Rand) types.Tuple {
		return types.NewTuple(fmt.Sprintf("k%d", r.Intn(4)), int64(r.Intn(3)), half(r), int64(r.Intn(5)), "tag")
	}},
	{name: "undeclared-column-blocks-merge", key: []int{0}, merge: map[int]string{1: "sum"}, gen: func(r *rand.Rand) types.Tuple {
		return types.NewTuple(int64(r.Intn(6)), half(r), fmt.Sprintf("t%d", r.Intn(2)))
	}},
	{name: "mixed-kind-lanes", key: []int{0}, merge: map[int]string{1: "sum"}, gen: func(r *rand.Rand) types.Tuple {
		var k types.Value = int64(r.Intn(6))
		switch r.Intn(5) {
		case 0:
			k = fmt.Sprintf("s%d", r.Intn(3))
		case 1:
			k = float64(r.Intn(6)) // integral float: same key as the int
		case 2:
			k = nil
		}
		var v types.Value = half(r)
		switch r.Intn(6) {
		case 0:
			v = int64(r.Intn(9))
		case 1:
			v = "x"
		case 2:
			v = nil
		case 3:
			v = r.Intn(2) == 0
		}
		return types.NewTuple(k, v)
	}},
	{name: "broadcast", key: nil, merge: map[int]string{1: "sum"}, gen: func(r *rand.Rand) types.Tuple {
		return types.NewTuple(int64(r.Intn(4)), half(r))
	}},
}

// randomStream draws a delta stream over gen's tuples that exercises every
// rule: deletes and replaces mostly target tuples the stream inserted
// (so they annihilate, fold and retract), sometimes strangers.
func randomStream(r *rand.Rand, gen func(*rand.Rand) types.Tuple, n int) []types.Delta {
	var live []types.Tuple
	pick := func() (types.Tuple, bool) {
		if len(live) == 0 || r.Intn(8) == 0 {
			return gen(r), false
		}
		i := r.Intn(len(live))
		t := live[i]
		live = append(live[:i], live[i+1:]...)
		return t, true
	}
	out := make([]types.Delta, 0, n)
	for len(out) < n {
		switch r.Intn(10) {
		case 0, 1, 2:
			t := gen(r)
			live = append(live, t)
			out = append(out, types.Insert(t))
		case 3, 4:
			t, _ := pick()
			out = append(out, types.Delete(t))
		case 5, 6:
			old, _ := pick()
			nt := gen(r)
			if r.Intn(3) > 0 { // usually keep the routing key
				nt[0] = old[0]
			}
			live = append(live, nt)
			out = append(out, types.Replace(old, nt))
		default:
			out = append(out, types.Update(gen(r)))
		}
	}
	return out
}

// The columnar store against the row Compactor as oracle: randomized
// streams of all four ops (NULLs, mixed-kind and string lanes,
// multi-column and broadcast keys, merges declared or not), entered row-form
// or batch-form (one-row selections), drained at random points. Folding
// each side's drains into a keyed view must give equal views (equal, too,
// to the uncompacted stream's), and the store's accounting must balance:
// in = out + annihilated + folded.
func TestDeltaStoreMatchesCompactor(t *testing.T) {
	for _, tc := range storeCases {
		t.Run(tc.name, func(t *testing.T) {
			var foldedTotal int
			for seed := int64(1); seed <= 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				keyFn := func(tup types.Tuple) types.Value {
					if tc.key != nil {
						return tup.Key(tc.key)
					}
					all := make([]int, len(tup))
					for i := range all {
						all[i] = i
					}
					return tup.Key(all)
				}
				oracle := NewCompactor(keyFn, rowMerge(tc.key, tc.merge))
				store := NewDeltaStore(tc.key, tc.merge, true)
				raw, want, got := newKeyedView(tc.merge), newKeyedView(tc.merge), newKeyedView(tc.merge)
				out := 0
				drain := func() {
					want.apply(oracle.Drain())
					ds := store.Drain().Deltas()
					out += len(ds)
					got.apply(ds)
					store.Reset()
					if store.Len() != 0 || store.Pending() != 0 || store.Folded() {
						t.Fatalf("seed %d: store not empty after Reset", seed)
					}
				}
				stream := randomStream(r, tc.gen, 400)
				raw.apply(stream)
				for len(stream) > 0 {
					n := min(len(stream), 1+r.Intn(24))
					chunk := stream[:n]
					stream = stream[n:]
					var src *types.DeltaBatch
					if r.Intn(2) == 0 {
						src, _ = types.FromDeltas(chunk)
					}
					hashes := make([]uint64, len(chunk))
					for i, d := range chunk {
						oracle.Add(d)
						h := d.Tup.Hash()
						if tc.key != nil {
							h = d.Tup.HashKey(tc.key)
						}
						hashes[i] = h
						ok := false
						if src != nil {
							n, _ := store.AppendRows(src, []int32{int32(i)}, hashes, 0)
							ok = n == 1
						} else {
							ok = store.Append(d, h)
						}
						if !ok {
							t.Fatalf("seed %d: uniform-arity append refused", seed)
						}
					}
					if r.Intn(4) == 0 {
						drain()
					}
				}
				drain()
				if !got.equal(want) {
					t.Fatalf("seed %d: store view differs from compactor view\nstore:     %v\ncompactor: %v", seed, got, want)
				}
				if !got.equal(raw) {
					t.Fatalf("seed %d: store view differs from the uncompacted stream's\nstore: %v\nraw:   %v", seed, got, raw)
				}
				added, annihilated, folded := store.Stats()
				if added != 400 || added != out+annihilated+folded {
					t.Fatalf("seed %d: store accounting: in=%d out=%d annihilated=%d folded=%d", seed, added, out, annihilated, folded)
				}
				foldedTotal += annihilated + folded
				store.Release()
			}
			if foldedTotal == 0 {
				t.Fatal("no stream folded anything: the test is vacuous")
			}
		})
	}
}

// appendCol0 appends d to a store keyed by column 0.
func appendCol0(s *DeltaStore, d types.Delta) bool {
	return s.Append(d, d.Tup.HashKey([]int{0}))
}

// With compaction off the store is an append buffer: nothing folds,
// order is arrival order.
func TestDeltaStorePlainAppend(t *testing.T) {
	s := NewDeltaStore([]int{0}, map[int]string{1: "sum"}, false)
	defer s.Release()
	a := types.NewTuple(int64(1), 2.0)
	in := []types.Delta{types.Insert(a), types.Delete(a), types.Update(a), types.Update(a)}
	for _, d := range in {
		if !appendCol0(s, d) {
			t.Fatal("append refused")
		}
	}
	if s.Folded() || s.Len() != 4 || s.Pending() != 4 {
		t.Fatalf("plain store folded: len=%d pending=%d", s.Len(), s.Pending())
	}
	got := s.Drain().Deltas()
	for i, d := range got {
		if d.Op != in[i].Op || !d.Tup.Equal(in[i].Tup) {
			t.Fatalf("row %d = %v, want %v", i, d, in[i])
		}
	}
}

// A delta whose arity diverges from the pending rows is refused, so the
// caller can drain and retry; the store is untouched by the refusal.
func TestDeltaStoreRefusesRaggedArity(t *testing.T) {
	s := NewDeltaStore([]int{0}, nil, true)
	defer s.Release()
	if !appendCol0(s, types.Insert(types.NewTuple(int64(1), "a"))) {
		t.Fatal("first append refused")
	}
	if appendCol0(s, types.Insert(types.NewTuple(int64(1)))) {
		t.Fatal("ragged append accepted")
	}
	if s.Len() != 1 || s.Pending() != 1 {
		t.Fatalf("refusal changed the store: len=%d pending=%d", s.Len(), s.Pending())
	}
	s.Drain()
	s.Reset()
	if !appendCol0(s, types.Insert(types.NewTuple(int64(1)))) {
		t.Fatal("append after drain refused")
	}
}

// Annihilated rows stay physically buffered until Drain (Len counts them,
// so flush triggers bound the store under churn), and a key whose delta
// was annihilated folds again from its next arrival.
func TestDeltaStoreAnnihilationReclaimedAtDrain(t *testing.T) {
	s := NewDeltaStore([]int{0}, nil, true)
	defer s.Release()
	for i := 0; i < 100; i++ {
		tup := types.NewTuple(int64(i%10), "x")
		appendCol0(s, types.Insert(tup))
		appendCol0(s, types.Delete(tup))
	}
	if s.Len() != 100 || !s.Folded() {
		t.Fatalf("len = %d, want 100 annihilated slots", s.Len())
	}
	keep := types.NewTuple(int64(3), "y")
	appendCol0(s, types.Insert(keep))
	appendCol0(s, types.Replace(keep, types.NewTuple(int64(3), "z")))
	got := s.Drain().Deltas()
	if len(got) != 1 || got[0].Op != types.OpInsert || got[0].Tup[1] != "z" {
		t.Fatalf("drain = %v, want +(3, z)", got)
	}
}

// appendRowRef is the store's per-row append before AppendRows: copy row
// i of src lane to lane, then settle it against its key's previous live
// delta in one probe loop. FuzzDeltaStoreFold holds the batch path to it.
func (s *DeltaStore) appendRowRef(src *types.DeltaBatch, i int, h uint64) bool {
	if !s.b.CanAppendRowFrom(src, i) {
		return false
	}
	s.b.AppendRowFrom(src, i)
	s.added++
	if !s.compact {
		return true
	}
	n := s.b.Len() - 1
	p, r := s.index.First(h)
	for ; r >= 0; p, r = s.index.Next(p) {
		if s.index.Hash(r) != h || !s.b.ColsEqual(int(r), n, s.key) {
			continue
		}
		if !s.dead[r] && s.fold(int(r), n) {
			s.b.Truncate(n)
			return true
		}
		break
	}
	s.index.Add(p, h)
	s.dead = append(s.dead, false)
	return true
}

// fuzzStream turns fuzz bytes into a store configuration and a delta
// stream. Header: arity (1–4), routing key (column 0, columns 0–1, or
// keyless), a declared merge per non-key column, a lane kind per column
// (int, float, int-or-float, or int-float-or-string), and the flush
// granularity. Then, per delta, one control byte — its op, whether a
// chunk ends (or the stores drain) before it, whether its chunk arrives
// as a decoded frame — and one byte per value (and per old-image value of
// a replace), drawn from a few values per kind so keys repeat.
type fuzzStream struct {
	key    []int
	merge  map[int]string
	every  int
	deltas []types.Delta
	ctl    []byte
	odd    bool // a NaN or −0.0 was drawn
}

func newFuzzStream(data []byte) (*fuzzStream, bool) {
	if len(data) < 5 {
		return nil, false
	}
	arity := 1 + int(data[0]%4)
	fs := &fuzzStream{merge: map[int]string{}, every: 1 + int(data[4]%12)}
	switch data[1] % 3 {
	case 0:
		fs.key = []int{0}
	case 1:
		fs.key = []int{0, 1}[:min(2, arity)]
	}
	lanes := make([]byte, arity)
	for c := range lanes {
		lanes[c] = data[3] >> (2 * (c % 4)) & 3
	}
	for c := 0; c < arity; c++ {
		// Merges go on numeric lanes only: the keyed view counts a
		// non-numeric δ() value as a row, which folding changes.
		if name := [4]string{"", "sum", "min", "max"}[data[2]>>(2*(c%4))&3]; name != "" && lanes[c] < 3 && (fs.key == nil || c >= len(fs.key)) {
			fs.merge[c] = name
		}
	}
	data = data[5:]
	value := func(lane, v byte) types.Value {
		if v%8 == 0 {
			return nil
		}
		switch lane {
		case 2: // mixed numeric
			lane = v >> 6 % 2
		case 3: // mixed
			lane = v >> 6 % 3
			if lane == 2 {
				return [3]string{"a", "b", "c"}[v>>3%3]
			}
		}
		x := int64(v>>3) % 5
		if lane == 0 {
			return x
		}
		switch v >> 3 % 8 {
		case 6:
			fs.odd = true
			return math.Copysign(0, -1)
		case 7:
			fs.odd = true
			return math.NaN()
		}
		return float64(x) / 2
	}
	tuple := func() types.Tuple {
		t := make(types.Tuple, arity)
		for c := range t {
			if len(data) > 0 {
				t[c] = value(lanes[c], data[0])
				data = data[1:]
			}
		}
		return t
	}
	for len(data) > 0 && len(fs.deltas) < 512 {
		ctl := data[0]
		data = data[1:]
		var d types.Delta
		switch ctl % 4 {
		case 0:
			d = types.Insert(tuple())
		case 1:
			d = types.Delete(tuple())
		case 2:
			d = types.Update(tuple())
		default:
			d = types.Replace(tuple(), tuple())
		}
		fs.deltas = append(fs.deltas, d)
		fs.ctl = append(fs.ctl, ctl)
	}
	return fs, len(fs.deltas) > 0
}

func (fs *fuzzStream) hash(t types.Tuple) uint64 {
	if fs.key == nil {
		return t.Hash()
	}
	return t.HashKey(fs.key)
}

// Property: a delta stream folded through AppendRows — chunks of rows at
// a time, stopping at every flush boundary, straight from built or
// decoded batches — drains byte for byte what the per-row append drains
// at the same points, with the same accounting. Both fold to the same
// keyed view as the row Compactor (NaN and −0.0 aside: they make a view's
// float folds order-dependent).
func FuzzDeltaStoreFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, ok := newFuzzStream(data)
		if !ok {
			return
		}
		keyFn := func(tup types.Tuple) types.Value {
			if fs.key != nil {
				return tup.Key(fs.key)
			}
			all := make([]int, len(tup))
			for i := range all {
				all[i] = i
			}
			return tup.Key(all)
		}
		oracle := NewCompactor(keyFn, rowMerge(fs.key, fs.merge))
		got := NewDeltaStore(fs.key, fs.merge, true)
		ref := NewDeltaStore(fs.key, fs.merge, true)
		defer got.Release()
		defer ref.Release()
		gotView, wantView := newKeyedView(fs.merge), newKeyedView(fs.merge)
		drain := func() {
			g, r := got.Drain(), ref.Drain()
			// An empty drain ships nothing (its pooled batch may keep a
			// stale column count); a non-empty one ships its encoding.
			if g.Len() != r.Len() || g.Len() > 0 && string(EncodeDeltaBatch(nil, g)) != string(EncodeDeltaBatch(nil, r)) {
				t.Fatalf("drains differ:\nbatch path: %v\nper row:    %v", g.Deltas(), r.Deltas())
			}
			gotView.apply(g.Deltas())
			wantView.apply(oracle.Drain())
			got.Reset()
			ref.Reset()
		}
		same := func(at string) {
			ga, gn, gf := got.Stats()
			ra, rn, rf := ref.Stats()
			if got.Len() != ref.Len() || got.Pending() != ref.Pending() || got.Folded() != ref.Folded() || ga != ra || gn != rn || gf != rf {
				t.Fatalf("%s: batch path len %d pending %d folded %v stats %d/%d/%d; per row len %d pending %d folded %v stats %d/%d/%d",
					at, got.Len(), got.Pending(), got.Folded(), ga, gn, gf, ref.Len(), ref.Pending(), ref.Folded(), ra, rn, rf)
			}
		}
		for lo := 0; lo < len(fs.deltas); {
			hi := lo + 1
			for hi < len(fs.deltas) && fs.ctl[hi]&0x40 == 0 && hi-lo < 64 {
				hi++
			}
			chunk := fs.deltas[lo:hi]
			if fs.ctl[lo]&0x80 != 0 {
				drain()
			}
			src, ok := types.FromDeltas(chunk)
			if !ok {
				t.Fatal("uniform-arity chunk refused")
			}
			if fs.ctl[lo]&0x20 != 0 {
				var err error
				if _, src, err = DecodeDeltasAny(EncodeDeltaBatch(nil, src)); err != nil {
					t.Fatalf("chunk does not decode: %v", err)
				}
			}
			var hashes []uint64
			if fs.key == nil {
				hashes = src.HashRows(nil)
			} else {
				hashes = src.HashKeys(fs.key, nil)
			}
			sel := make([]int32, len(chunk))
			for i := range sel {
				sel[i] = int32(i)
			}
			for i, d := range chunk {
				if hashes[i] != fs.hash(d.Tup) {
					t.Fatalf("row %v: batch hash %#x, tuple hash %#x", d.Tup, hashes[i], fs.hash(d.Tup))
				}
			}
			for done := 0; done < len(sel); {
				n, full := got.AppendRows(src, sel[done:], hashes, fs.every)
				if n == 0 {
					t.Fatal("AppendRows took no row of a uniform chunk")
				}
				if !full && n != len(sel)-done {
					t.Fatalf("rows %d..%d: AppendRows stopped after %d rows short of a boundary", lo, hi, n)
				}
				for k, i := range sel[done : done+n] {
					before := ref.Len()
					if !ref.appendRowRef(src, int(i), hashes[i]) {
						t.Fatal("per-row append refused a uniform row")
					}
					oracle.Add(chunk[i])
					l := ref.Len()
					if boundary, last := l > before && l%fs.every == 0, k == n-1; boundary && !last || last && boundary != full {
						t.Fatalf("row %d: per-row len %d → %d (every %d), AppendRows full=%v after %d rows", lo+done+k, before, l, fs.every, full, n)
					}
				}
				done += n
				same(fmt.Sprintf("rows %d..%d", lo, lo+done))
				if full && fs.ctl[lo]&0x10 != 0 {
					drain()
				}
			}
			lo = hi
		}
		drain()
		if !fs.odd && !gotView.equal(wantView) {
			t.Fatalf("store view differs from compactor view\nstore:     %v\ncompactor: %v", gotView, wantView)
		}
	})
}

// PageRank's and SSSP's shuffles (internal/algos: routing key nbr, an int
// column; rank contributions summed, distances min-folded, both floats)
// fold every δ() selection on lanes: into an empty store, into one the
// lanes already fit, from built and from decoded batches, across flush
// stops. Over 997 keys the index probes step past other keys. The drains
// are byte for byte the per-row append's.
func TestAppendRowsFoldsOnLanes(t *testing.T) {
	for _, merge := range []string{"sum", "min"} {
		t.Run(merge, func(t *testing.T) {
			const every = 256
			got := NewDeltaStore([]int{0}, map[int]string{1: merge}, true)
			ref := NewDeltaStore([]int{0}, map[int]string{1: merge}, true)
			defer got.Release()
			defer ref.Release()
			r := rand.New(rand.NewSource(7))
			rows := 0
			for chunk := 0; chunk < 40; chunk++ {
				src := types.GetBatch()
				for i := 0; i < 200; i++ {
					src.Append(types.Update(types.NewTuple(int64(r.Intn(997)), float64(r.Intn(64))/8)))
				}
				if chunk%3 == 0 {
					var err error
					if _, src, err = DecodeDeltasAny(EncodeDeltaBatch(nil, src)); err != nil {
						t.Fatal(err)
					}
				}
				hashes := src.HashKeys([]int{0}, nil)
				sel := make([]int32, src.Len())
				for i := range sel {
					sel[i] = int32(i)
				}
				for len(sel) > 0 {
					n, full := got.AppendRows(src, sel, hashes, every)
					for _, i := range sel[:n] {
						ref.appendRowRef(src, int(i), hashes[i])
					}
					rows += n
					sel = sel[n:]
					if full || chunk%7 == 6 {
						g, w := got.Drain(), ref.Drain()
						if g.Len() != w.Len() || g.Len() > 0 && string(EncodeDeltaBatch(nil, g)) != string(EncodeDeltaBatch(nil, w)) {
							t.Fatalf("chunk %d: lane drain differs from the per-row append's", chunk)
						}
						got.Reset()
						ref.Reset()
					}
				}
			}
			if got.laneRows != rows {
				t.Fatalf("%d of %d rows folded on lanes", got.laneRows, rows)
			}
			ga, _, gf := got.Stats()
			ra, _, rf := ref.Stats()
			if ga != ra || gf != rf || gf == 0 {
				t.Fatalf("stats: lanes added %d folded %d, per row added %d folded %d", ga, gf, ra, rf)
			}
		})
	}
}
