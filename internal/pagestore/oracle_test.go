package pagestore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

// refStore is the oracle: one node's copies of one table as a plain list,
// with the linear first-match delete both backends used to have.
type refStore struct {
	keyCol int
	rows   []types.Tuple
}

func (r *refStore) insert(t types.Tuple) { r.rows = append(r.rows, t) }

func (r *refStore) delete(t types.Tuple) {
	for i, row := range r.rows {
		if row.Equal(t) {
			r.rows = append(r.rows[:i], r.rows[i+1:]...)
			return
		}
	}
}

// owned lists the rows node primarily owns under snap — what ScanBatches
// must emit — optionally narrowed to one key hash, which is what
// LookupOwned must append.
func (r *refStore) owned(t *testing.T, node cluster.NodeID, snap *cluster.Snapshot, onlyHash *uint64) []string {
	var out []string
	for _, row := range r.rows {
		h := types.HashValue(row[r.keyCol])
		primary, err := snap.Primary(h)
		if err != nil {
			t.Fatal(err)
		}
		if primary == node && (onlyHash == nil || *onlyHash == h) {
			out = append(out, fmt.Sprint(row))
		}
	}
	sort.Strings(out)
	return out
}

// rowsOf renders a batch's rows, which must all be insertions.
func rowsOf(t *testing.T, b *types.DeltaBatch, out []string) []string {
	t.Helper()
	for i := 0; i < b.Len(); i++ {
		d := b.Delta(i)
		if d.Op != types.OpInsert {
			t.Fatalf("stored row %v carries op %v", d.Tup, d.Op)
		}
		out = append(out, fmt.Sprint(d.Tup))
	}
	return out
}

// scanned is the multiset ScanBatches emits, sorted.
func scanned(t *testing.T, st storage.Backend, table string, snap *cluster.Snapshot) []string {
	t.Helper()
	var out []string
	if err := st.ScanBatches(table, snap, func(b *types.DeltaBatch) error {
		out = rowsOf(t, b, out)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// lookedUp is the multiset LookupOwned appends, sorted.
func lookedUp(t *testing.T, st storage.Backend, table string, h uint64, snap *cluster.Snapshot) []string {
	t.Helper()
	var b types.DeltaBatch
	if err := st.LookupOwned(table, h, snap, &b); err != nil {
		t.Fatal(err)
	}
	out := rowsOf(t, &b, nil)
	sort.Strings(out)
	return out
}

// oracleKey draws partition keys from a small domain so schedules are rich
// in duplicate keys, with string and NULL keys mixed in.
func oracleKey(r *rand.Rand, domain int) types.Value {
	switch k := r.Intn(domain + domain/8 + 1); {
	case k < domain:
		return int64(k)
	case k < domain+domain/8:
		return fmt.Sprintf("s%d", k)
	}
	return nil
}

// runStoreOracle drives a random insert/delete/replace schedule into three
// stores of one backend (ring of three, replication 1–3 by seed) and into
// the reference model, checking after every burst that the two agree —
// under the full snapshot, with each node dead in turn (its ranges
// promoted to replicas), and under snapshots of a second ring, which makes
// the RAM store re-place its rows (and the next write re-place them back).
func runStoreOracle(t *testing.T, seed int64, ops int, pad string, open func(node cluster.NodeID) storage.Backend) {
	const table, keyCol, nodes = "t", 1, 3
	r := rand.New(rand.NewSource(seed))
	replication := 1 + int(seed%3)
	ring := cluster.NewRing(nodes, 16, replication)
	full := cluster.NewSnapshot(ring, ring.Nodes())
	other := cluster.NewRing(nodes, 11, replication)
	otherFull := cluster.NewSnapshot(other, other.Nodes())
	snaps := []*cluster.Snapshot{full, otherFull, otherFull.Without(2)}
	for n := 0; n < nodes; n++ {
		snaps = append(snaps, full.Without(cluster.NodeID(n)))
	}

	stores := make([]storage.Backend, nodes)
	refs := make([]*refStore, nodes)
	for n := range stores {
		stores[n] = open(cluster.NodeID(n))
		stores[n].CreateTable(table, keyCol)
		refs[n] = &refStore{keyCol: keyCol}
	}
	loader := &storage.Loader{Ring: ring, Stores: stores}

	var live []types.Tuple // multiset of rows inserted and not yet deleted
	serial := 0
	fresh := func() types.Tuple {
		serial++
		// A handful of payloads per key, so exact duplicate rows occur too.
		return types.NewTuple(int64(serial%3), oracleKey(r, 2+ops/12), pad)
	}
	// Mutations reach the stores through a Loader, as ingestion's do; the
	// model routes by the same ring.
	apply := func(d types.Delta) {
		t.Helper()
		if err := loader.Apply(table, keyCol, []types.Delta{d}); err != nil {
			t.Fatal(err)
		}
		if d.Op != types.OpInsert {
			old := d.Old
			if d.Op == types.OpDelete {
				old = d.Tup
			}
			for _, n := range ring.Owners(types.HashValue(old[keyCol])) {
				refs[n].delete(old)
			}
		}
		if d.Op != types.OpDelete {
			for _, n := range ring.Owners(types.HashValue(d.Tup[keyCol])) {
				refs[n].insert(d.Tup)
			}
		}
	}
	takeLive := func() types.Tuple {
		i := r.Intn(len(live))
		row := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return row
	}

	check := func(step int) {
		t.Helper()
		for n, st := range stores {
			node := cluster.NodeID(n)
			if got, want := st.CountLocal(table), len(refs[n].rows); got != want {
				t.Fatalf("seed %d step %d node %d: CountLocal = %d, model %d", seed, step, n, got, want)
			}
			for si, snap := range snaps {
				if !snap.Alive(node) {
					continue
				}
				got := scanned(t, st, table, snap)
				if want := refs[n].owned(t, node, snap, nil); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("seed %d step %d node %d snap %d: ScanBatches has %d rows, model %d", seed, step, n, si, len(got), len(want))
				}
				if c, err := st.CountOwned(table, snap); err != nil || c != len(got) {
					t.Fatalf("seed %d step %d node %d snap %d: CountOwned = %d, %v; scan has %d", seed, step, n, si, c, err, len(got))
				}
				// Every key present anywhere, plus keys present nowhere.
				probes := map[uint64]types.Value{}
				for _, row := range live {
					probes[types.HashValue(row[keyCol])] = row[keyCol]
				}
				for _, absent := range []types.Value{int64(-1), "absent"} {
					probes[types.HashValue(absent)] = absent
				}
				for h, key := range probes {
					got := lookedUp(t, st, table, h, snap)
					if want := refs[n].owned(t, node, snap, &h); strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("seed %d step %d node %d snap %d key %v: LookupOwned = %v, model %v", seed, step, n, si, key, got, want)
					}
				}
			}
		}
	}

	for step := 0; step < ops; step++ {
		switch p := r.Intn(100); {
		case p < 55 || len(live) == 0: // insert; the table grows on balance
			row := fresh()
			live = append(live, row)
			apply(types.Insert(row))
		case p < 70: // delete a present row
			apply(types.Delete(takeLive()))
		case p < 78: // delete an absent row (a key that exists, a payload that does not)
			ghost := fresh()
			ghost[0] = int64(-7)
			apply(types.Delete(ghost))
		case p < 90: // replace, usually moving the row to another key
			old, row := takeLive(), fresh()
			live = append(live, row)
			apply(types.Replace(old, row))
		default: // delete then reinsert the same row
			row := takeLive()
			apply(types.Delete(row))
			live = append(live, row)
			apply(types.Insert(row))
		}
		if step%(ops/4) == ops/4-1 {
			check(step)
		}
	}
	// Shrink to nothing: every chain unlinks down to empty.
	for len(live) > 0 {
		apply(types.Delete(takeLive()))
	}
	check(ops)
}

// TestStoreOracleRAM and TestStoreOraclePaged are one differential test
// over the two storage.Backend implementations. The RAM schedules are long
// enough to cross five doublings of the key index; the paged ones carry a
// wide payload so each node's table outgrows its 32-page pool.
func TestStoreOracleRAM(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runStoreOracle(t, seed, 1600, "", func(node cluster.NodeID) storage.Backend {
			return storage.NewStore(node)
		})
	}
}

func TestStoreOraclePaged(t *testing.T) {
	pad := strings.Repeat("x", 3900)
	for seed := int64(1); seed <= 40; seed++ {
		dir := t.TempDir()
		var opened []*Store
		runStoreOracle(t, seed, 400, pad, func(node cluster.NodeID) storage.Backend {
			s, err := Open(fmt.Sprintf("%s/n%d", dir, node), node, 32)
			if err != nil {
				t.Fatal(err)
			}
			opened = append(opened, s)
			return s
		})
		for _, s := range opened {
			if seed == 1 && s.PoolStats().Evictions == 0 {
				t.Errorf("node %d never evicted a page: the schedule fits the pool", s.Node())
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// pagedBenchStore stages a 50 000-row table (one to seven rows per key)
// into a paged store whose pool holds it all, so the benchmarks time the
// hash-filtered page walk rather than the disk.
func pagedBenchStore(b *testing.B) (*Store, []types.Tuple, *cluster.Snapshot) {
	b.Helper()
	s, err := Open(b.TempDir(), 0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	s.CreateTable("t", 0)
	rows := make([]types.Tuple, 0, 50_000)
	for key := int64(0); len(rows) < cap(rows); key++ {
		for line := int64(0); line <= key%7 && len(rows) < cap(rows); line++ {
			rows = append(rows, types.NewTuple(key, line, float64(key)*0.5))
		}
	}
	for _, row := range rows {
		if err := s.Insert("t", row); err != nil {
			b.Fatal(err)
		}
	}
	ring := cluster.NewRing(1, 64, 1)
	return s, rows, cluster.NewSnapshot(ring, ring.Nodes())
}

func BenchmarkPagedLookup(b *testing.B) {
	s, rows, snap := pagedBenchStore(b)
	r := rand.New(rand.NewSource(1))
	n := 0
	out := new(types.DeltaBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := types.HashValue(rows[r.Intn(len(rows))][0])
		if err := s.LookupOwned("t", h, snap, out); err != nil {
			b.Fatal(err)
		}
		n += out.Len()
		out.Reset()
	}
	if n < b.N {
		b.Fatalf("%d lookups emitted %d rows", b.N, n)
	}
}

// BenchmarkPagedDelete times one delete plus the insert that puts the row
// back.
func BenchmarkPagedDelete(b *testing.B) {
	s, rows, _ := pagedBenchStore(b)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := rows[r.Intn(len(rows))]
		if !s.Delete("t", row) {
			b.Fatal("row not found")
		}
		if err := s.Insert("t", row); err != nil {
			b.Fatal(err)
		}
	}
}
