package storage

import (
	"math/rand"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

// keyedRows builds a lineitem-shaped table: consecutive keys with one to
// seven rows each, n rows in all.
func keyedRows(n int) []types.Tuple {
	rows := make([]types.Tuple, 0, n)
	for key := int64(0); len(rows) < n; key++ {
		for line := int64(0); line <= key%7 && len(rows) < n; line++ {
			rows = append(rows, types.NewTuple(key, line, float64(key)*0.5))
		}
	}
	return rows
}

func keyedStore(tb testing.TB, rows []types.Tuple) (*Store, *cluster.Snapshot) {
	tb.Helper()
	ring := cluster.NewRing(1, 64, 1)
	s := NewStore(0)
	l := &Loader{Ring: ring, Stores: []Backend{s}}
	if err := l.Load("t", 0, rows); err != nil {
		tb.Fatal(err)
	}
	return s, cluster.NewSnapshot(ring, ring.Nodes())
}

// A short tuple has no key to place it by: Insert refuses it with an error
// (the paged store's behaviour) instead of indexing out of range, Delete
// reports it absent, and ApplyDelta surfaces the insert error.
func TestShortTupleRejected(t *testing.T) {
	s := NewStore(0)
	s.CreateTable("t", 1)
	short := types.NewTuple(int64(1))
	if err := s.Insert("t", short); err == nil {
		t.Fatal("insert of a tuple shorter than the key column must fail")
	}
	if s.Delete("t", short) {
		t.Fatal("delete of a short tuple reported a match")
	}
	if err := s.ApplyDelta("t", types.Insert(short)); err == nil {
		t.Fatal("ApplyDelta insert of a short tuple must fail")
	}
	if err := s.ApplyDelta("t", types.Delete(short)); err != nil {
		t.Fatalf("ApplyDelta delete of a short tuple: %v", err)
	}
	if n := s.CountLocal("t"); n != 0 {
		t.Fatalf("short tuples left %d rows behind", n)
	}
}

// The complexity gate: keyed operations look at the rows on one index
// chain, not at the table. It counts rows examined — a count, so it cannot
// flake — over a 50 000-row table with at most seven rows per key. A
// delete stops at its match; a lookup has to visit every row of its key,
// so its budget is on the rows it looked at beyond the ones it returned.
func TestKeyedOpsExamineAChainNotTheTable(t *testing.T) {
	rows := keyedRows(50_000)
	s, snap := keyedStore(t, rows)
	var examined int
	s.examined = func(n int) { examined += n }
	mean := func(ops int) float64 {
		m := float64(examined) / float64(ops)
		examined = 0
		return m
	}

	r := rand.New(rand.NewSource(1))
	const ops = 5000
	emitted := 0
	out := new(types.DeltaBatch)
	for i := 0; i < ops; i++ {
		key := rows[r.Intn(len(rows))][0]
		if err := s.LookupOwned("t", types.HashValue(key), snap, out); err != nil {
			t.Fatal(err)
		}
		emitted += out.Len()
		out.Reset()
	}
	hit := mean(ops) - float64(emitted)/ops
	for i := 0; i < ops; i++ {
		absent := int64(1_000_000 + i)
		if err := s.LookupOwned("t", types.HashValue(absent), snap, out); err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Fatalf("lookup of absent key %d found %d rows", absent, out.Len())
		}
	}
	miss := mean(ops)
	for i := 0; i < ops; i++ {
		row := rows[r.Intn(len(rows))]
		if s.Delete("t", row) {
			if err := s.Insert("t", row); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := mean(ops)
	t.Logf("rows examined per op: lookup hit %.2f beyond its result, lookup miss %.2f, delete %.2f", hit, miss, del)
	for name, m := range map[string]float64{"lookup hit (beyond result)": hit, "lookup miss": miss, "delete": del} {
		if m > 4 {
			t.Errorf("%s examined %.2f rows per op, want <= 4", name, m)
		}
	}
}

func TestLookupHitDoesNotAllocate(t *testing.T) {
	rows := keyedRows(50_000)
	s, snap := keyedStore(t, rows)
	h := types.HashValue(rows[len(rows)/2][0])
	n := 0
	out := new(types.DeltaBatch)
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.LookupOwned("t", h, snap, out); err != nil {
			t.Fatal(err)
		}
		n += out.Len()
		out.Reset()
	})
	if n == 0 {
		t.Fatal("lookup found no rows")
	}
	if allocs != 0 {
		t.Fatalf("LookupOwned hit allocates %.1f times per call, want 0", allocs)
	}
}

// The index budget: 4 bytes of link per row plus at most 2 of bucket
// heads, at every size on the way up (bucket doublings included) — inside
// the 8 bytes per stored row the design allows itself.
func TestIndexStaysWithinSixBytesPerRow(t *testing.T) {
	s := NewStore(0)
	s.CreateTable("t", 0)
	s.Delete("t", types.NewTuple(int64(0))) // a keyed operation: the index exists from here on
	for i := 1; i <= 100_000; i++ {
		if err := s.Insert("t", types.NewTuple(int64(i))); err != nil {
			t.Fatal(err)
		}
		p := s.tables["t"]
		links := 0
		for j := range p.segs {
			links += len(p.segs[j].next)
		}
		if bytes := 4 * (len(p.heads) + links); links != i || i > 4*minBuckets && bytes > 6*i {
			t.Fatalf("%d rows: index links %d rows in %d bytes, want all rows in at most 6 bytes each", i, links, bytes)
		}
	}
}

// The index is built by a table's first keyed operation, over whatever the
// table holds by then, and is the same index incremental inserts would
// have made: every key finds exactly its rows, every row can be deleted. A
// table that is only loaded and scanned never gets one.
func TestIndexBuiltOnFirstKeyedUse(t *testing.T) {
	rows := keyedRows(10_000)
	perKey := map[int64]int{}
	for _, row := range rows {
		perKey[row[0].(int64)]++
	}
	s, snap := keyedStore(t, rows)
	if n, err := s.CountOwned("t", snap); err != nil || n != len(rows) {
		t.Fatalf("CountOwned = %d, %v", n, err)
	}
	p := s.tables["t"]
	for i := range p.segs {
		if p.heads != nil || p.segs[i].next != nil {
			t.Fatal("a table that was only loaded and scanned carries an index")
		}
	}
	out := new(types.DeltaBatch)
	for key, want := range perKey {
		err := s.LookupOwned("t", types.HashValue(key), snap, out)
		got := 0
		for i := 0; i < out.Len(); i++ {
			if k, _ := out.Col(0).Int(i); k == key {
				got++
			}
		}
		out.Reset()
		if err != nil || got != want {
			t.Fatalf("key %d: lookup found %d rows (%v), want %d", key, got, err, want)
		}
	}
	for _, row := range rows {
		if !s.Delete("t", row) {
			t.Fatalf("row %v not found", row)
		}
	}
	if n := s.CountLocal("t"); n != 0 {
		t.Fatalf("%d rows left after deleting every row", n)
	}
}

var sink int

func BenchmarkStoreLookup(b *testing.B) {
	rows := keyedRows(50_000)
	s, snap := keyedStore(b, rows)
	r := rand.New(rand.NewSource(1))
	hashes := make([]uint64, 1024)
	for i := range hashes {
		hashes[i] = types.HashValue(rows[r.Intn(len(rows))][0])
	}
	out := new(types.DeltaBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.LookupOwned("t", hashes[i%len(hashes)], snap, out); err != nil {
			b.Fatal(err)
		}
		sink += out.Len()
		out.Reset()
	}
}

// BenchmarkStoreDelete times one delete plus the insert that puts the row
// back, on a 50 000-row table.
func BenchmarkStoreDelete(b *testing.B) {
	rows := keyedRows(50_000)
	s, _ := keyedStore(b, rows)
	r := rand.New(rand.NewSource(1))
	picks := make([]types.Tuple, 1024)
	for i := range picks {
		picks[i] = rows[r.Intn(len(rows))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := picks[i%len(picks)]
		if !s.Delete("t", row) {
			b.Fatal("row not found")
		}
		if err := s.Insert("t", row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScan times a full-snapshot ScanBatches of a 50 000-row
// table, reported per row.
func BenchmarkStoreScan(b *testing.B) {
	rows := keyedRows(50_000)
	s, snap := keyedStore(b, rows)
	emit := func(c *types.DeltaBatch) error { sink += c.Len(); return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ScanBatches("t", snap, emit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}

// The scan's complexity gate, in counts: a full-snapshot scan of 50 000
// rows decides ownership at most once per ring segment, and allocates
// nothing per row.
func TestScanDecidesPerSegment(t *testing.T) {
	rows := keyedRows(50_000)
	s, snap := keyedStore(t, rows)
	decided, emitted := 0, 0
	s.decided = func(n int) { decided += n }
	emit := func(c *types.DeltaBatch) error { emitted += c.Len(); return nil }
	if err := s.ScanBatches("t", snap, emit); err != nil {
		t.Fatal(err)
	}
	if emitted != len(rows) {
		t.Fatalf("scan emitted %d rows, want %d", emitted, len(rows))
	}
	if segs := snap.Ring().Segments(); decided > segs {
		t.Fatalf("scan made %d ownership decisions over %d segments", decided, segs)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.ScanBatches("t", snap, emit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a %d-row scan allocates %.1f times, want at most 1", len(rows), allocs)
	}
}

// ScanBatches holds the table's read lock while it emits, so a scan that
// races writers still sees one consistent table. Every write is a replace
// (a delete that swap-removes, then an insert) moving one unit between a
// row's two payload columns, so a+b stays fixed: every scan must see each
// key exactly once with its invariant intact. Run it under -race.
func TestScanSeesConsistentTableUnderApply(t *testing.T) {
	const keys, total = 3000, 100
	ring := cluster.NewRing(1, 16, 1)
	snap := cluster.NewSnapshot(ring, ring.Nodes())
	s := NewStore(0)
	rows := make([]types.Tuple, keys)
	for k := range rows {
		rows[k] = types.NewTuple(int64(k), int64(total), int64(0))
	}
	l := &Loader{Ring: ring, Stores: []Backend{s}}
	if err := l.Load("t", 0, rows); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		defer close(werr)
		r := rand.New(rand.NewSource(5))
		for {
			select {
			case <-done:
				return
			default:
			}
			k := r.Intn(keys)
			old := rows[k]
			next := types.NewTuple(old[0], old[1].(int64)-1, old[2].(int64)+1)
			if next[1].(int64) < 0 {
				next = types.NewTuple(old[0], int64(total), int64(0))
			}
			if err := s.ApplyDelta("t", types.Replace(old, next)); err != nil {
				werr <- err
				return
			}
			rows[k] = next
		}
	}()
	for scan := 0; scan < 200; scan++ {
		seen := make([]bool, keys)
		n := 0
		err := s.ScanBatches("t", snap, func(b *types.DeltaBatch) error {
			for i := 0; i < b.Len(); i++ {
				k, _ := b.Col(0).Int(i)
				a, _ := b.Col(1).Int(i)
				c, _ := b.Col(2).Int(i)
				if seen[k] || a+c != total {
					t.Errorf("scan %d: row %d (%d, %d) seen twice or torn", scan, k, a, c)
				}
				seen[k] = true
				n++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != keys {
			t.Fatalf("scan %d saw %d rows, want %d", scan, n, keys)
		}
	}
	close(done)
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}
