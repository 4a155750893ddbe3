package pagestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/types"
)

func tup(vs ...interface{}) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = types.Int(int64(x))
		case string:
			t[i] = types.Str(x)
		case float64:
			t[i] = types.Float(x)
		default:
			panic("unsupported")
		}
	}
	return t
}

func soloSnap(t *testing.T) *cluster.Snapshot {
	t.Helper()
	ring := cluster.NewRing(1, 8, 1)
	return cluster.NewSnapshot(ring, []cluster.NodeID{0})
}

func TestPageInsertDeleteCompaction(t *testing.T) {
	buf := make([]byte, PageSize)
	initPage(buf)
	recs := [][]byte{}
	for i := 0; i < 20; i++ {
		rec := encodeRecord(nil, uint64(i), tup(i, fmt.Sprintf("val-%d", i)))
		if !pageInsert(buf, rec) {
			t.Fatalf("page full after %d records", i)
		}
		recs = append(recs, rec)
	}
	freeBefore := pageFree(buf)
	// Delete from the middle, then the ends.
	for _, victim := range []int{7, 0, -1} {
		if victim < 0 {
			victim = len(recs) - 1
		}
		rec := recs[victim]
		recs = append(recs[:victim], recs[victim+1:]...)
		idx := -1
		for i := 0; i < pageSlots(buf); i++ {
			if string(pageRecord(buf, i)) == string(rec) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatalf("record not found before delete")
		}
		pageDelete(buf, idx)
		if pageFree(buf) <= freeBefore {
			t.Fatalf("free space did not grow after delete")
		}
		freeBefore = pageFree(buf)
		if pageSlots(buf) != len(recs) {
			t.Fatalf("slot count %d, want %d", pageSlots(buf), len(recs))
		}
		got := map[string]bool{}
		for i := 0; i < pageSlots(buf); i++ {
			got[string(pageRecord(buf, i))] = true
		}
		for _, want := range recs {
			if !got[string(want)] {
				t.Fatalf("surviving record lost after delete")
			}
		}
	}
}

func TestStoreInsertScanDelete(t *testing.T) {
	s, err := Open(t.TempDir(), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.CreateTable("edge", 0)
	snap := soloSnap(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Insert("edge", tup(i, fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CountLocal("edge"); got != n {
		t.Fatalf("CountLocal = %d, want %d", got, n)
	}
	seen := map[int64]bool{}
	if err := s.ScanOwned("edge", snap, func(tp types.Tuple) error {
		seen[tp[0].(int64)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("scanned %d distinct keys, want %d", len(seen), n)
	}
	if !s.Delete("edge", tup(123, "payload-123")) {
		t.Fatal("Delete missed an existing tuple")
	}
	if s.Delete("edge", tup(123, "payload-123")) {
		t.Fatal("Delete found an already-deleted tuple")
	}
	if got := s.CountLocal("edge"); got != n-1 {
		t.Fatalf("CountLocal = %d after delete, want %d", got, n-1)
	}
}

// A pool far smaller than the dataset must still serve every record, via
// eviction and reload.
func TestEvictionUnderTinyPool(t *testing.T) {
	s, err := Open(t.TempDir(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.CreateTable("big", 0)
	snap := soloSnap(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Insert("big", tup(i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.CountOwned("big", snap)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("CountOwned = %d, want %d", got, n)
	}
	st := s.PoolStats()
	if st.Evictions == 0 || st.BytesSpilled == 0 {
		t.Fatalf("expected evictions and spilled bytes under a 2-page pool, got %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("expected some pool hits, got %+v", st)
	}
}

// A miss reuses an evicted frame and its page buffer: once the pool is
// full, paging a table through it allocates nothing.
func TestPoolMissAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.CreateTable("big", 0)
	for i := 0; i < 2000; i++ {
		if err := s.Insert("big", tup(i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")); err != nil {
			t.Fatal(err)
		}
	}
	tab := s.tables["big"]
	if len(tab.pages) < 8 {
		t.Fatalf("%d pages is too few to page through a 2-frame pool", len(tab.pages))
	}
	next := 0
	miss := func() {
		f, err := s.pool.get(tab, tab.pages[next%len(tab.pages)], true)
		if err != nil {
			t.Fatal(err)
		}
		s.pool.unpin(f, false)
		next++
	}
	for range tab.pages { // write every dirty page back once
		miss()
	}
	misses := s.stats.Misses
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Errorf("%.1f allocations per pool miss, want 0", allocs)
	}
	if got := s.stats.Misses - misses; got != 101 {
		t.Fatalf("%d misses in 101 gets, want every get to miss", got)
	}
}

func hashTable(t *testing.T, s *Store, table string, snap *cluster.Snapshot) string {
	t.Helper()
	var rows []string
	if err := s.ScanOwned(table, snap, func(tp types.Tuple) error {
		rows = append(rows, tp.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return fmt.Sprint(rows)
}

func TestCommitRecoverDiscardUncommitted(t *testing.T) {
	dir := t.TempDir()
	snap := soloSnap(t)
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Restored() {
		t.Fatal("fresh store reports Restored")
	}
	s.CreateTable("t", 0)
	for i := 0; i < 100; i++ {
		if err := s.Insert("t", tup(i, i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDelta("t", types.Delta{Op: types.OpReplace, Old: tup(5, 25), Tup: tup(5, 999)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	want := hashTable(t, s, "t", snap)
	// Uncommitted churn a crash must lose.
	for i := 1000; i < 1100; i++ {
		if err := s.Insert("t", tup(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate SIGKILL: no Close, just reopen the directory.
	s2, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.Restored() {
		t.Fatal("reopened store does not report Restored")
	}
	if got := s2.CommittedRound(); got != 2 {
		t.Fatalf("CommittedRound = %d, want 2", got)
	}
	if got := hashTable(t, s2, "t", snap); got != want {
		t.Fatalf("recovered state differs from committed state")
	}
	if got := s2.CountLocal("t"); got != 100 {
		t.Fatalf("CountLocal = %d after recovery, want 100 (uncommitted inserts must vanish)", got)
	}
}

func TestRollbackRestoresLastCommit(t *testing.T) {
	s, err := Open(t.TempDir(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap := soloSnap(t)
	s.CreateTable("t", 0)
	for i := 0; i < 50; i++ {
		if err := s.Insert("t", tup(i, "committed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(7); err != nil {
		t.Fatal(err)
	}
	want := hashTable(t, s, "t", snap)
	for i := 0; i < 50; i++ {
		if err := s.Insert("t", tup(1000+i, "doomed")); err != nil {
			t.Fatal(err)
		}
	}
	statsBefore := s.PoolStats()
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := hashTable(t, s, "t", snap); got != want {
		t.Fatal("Rollback did not restore the committed state")
	}
	if got := s.CommittedRound(); got != 7 {
		t.Fatalf("CommittedRound = %d after Rollback, want 7", got)
	}
	after := s.PoolStats()
	if after.Hits+after.Misses < statsBefore.Hits+statsBefore.Misses {
		t.Fatal("pool stats must be cumulative across Rollback")
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("t", 0)
	if err := s.Insert("t", tup(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("t", tup(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	s.closeFilesLocked()
	// Tear the log: append garbage that fails CRC framing.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatalf("open over torn WAL: %v", err)
	}
	defer s2.Close()
	if got := s2.CommittedRound(); got != 2 {
		t.Fatalf("CommittedRound = %d, want 2", got)
	}
	if got := s2.CountLocal("t"); got != 2 {
		t.Fatalf("CountLocal = %d, want 2", got)
	}
}

func TestCheckpointImageRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "image.db")
	in := []imageTable{
		{name: "a", keyCol: 0, tuples: []types.Tuple{tup(1, "x"), tup(2, "y")}},
		{name: "b", keyCol: 1, tuples: []types.Tuple{tup(3.5, 4), tup(1.25, 9)}},
		{name: "empty", keyCol: 0},
		// Mixed arities and kinds: the payload splits into runs.
		{name: "ragged", keyCol: 0, tuples: []types.Tuple{tup(1, "S"), tup(2, "S", 0.5), types.NewTuple(int64(3), nil, "x"), tup(4)}},
	}
	if err := writeImage(path, 42, in); err != nil {
		t.Fatal(err)
	}
	round, out, err := readImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if round != 42 {
		t.Fatalf("round = %d, want 42", round)
	}
	if len(out) != len(in) {
		t.Fatalf("tables = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].name != in[i].name || out[i].keyCol != in[i].keyCol {
			t.Fatalf("table %d header mismatch: %+v vs %+v", i, out[i], in[i])
		}
		if len(out[i].tuples) != len(in[i].tuples) {
			t.Fatalf("table %s: %d tuples, want %d", in[i].name, len(out[i].tuples), len(in[i].tuples))
		}
		for j := range in[i].tuples {
			if !out[i].tuples[j].Equal(in[i].tuples[j]) {
				t.Fatalf("table %s tuple %d: %v vs %v", in[i].name, j, out[i].tuples[j], in[i].tuples[j])
			}
		}
	}
}

// Churn with interleaved commits and reopen after every commit: the
// recovered state must always equal the state at the last commit.
func TestRepeatedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	snap := soloSnap(t)
	s, err := Open(dir, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.CreateTable("t", 0)
	round := int64(0)
	for epoch := 0; epoch < 5; epoch++ {
		for i := 0; i < 40; i++ {
			k := epoch*40 + i
			if err := s.Insert("t", tup(k, k)); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 && k > 10 {
				s.Delete("t", tup(k-10, k-10))
			}
		}
		round++
		if err := s.Commit(round); err != nil {
			t.Fatal(err)
		}
		want := hashTable(t, s, "t", snap)
		// Uncommitted garbage, then crash.
		_ = s.Insert("t", tup(99999, epoch))
		s2, err := Open(dir, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashTable(t, s2, "t", snap); got != want {
			t.Fatalf("epoch %d: recovered state differs", epoch)
		}
		if got := s2.CommittedRound(); got != round {
			t.Fatalf("epoch %d: CommittedRound = %d, want %d", epoch, got, round)
		}
		s = s2
	}
	s.Close()
}

// Commit at round 0 and WAL growth past the size limit must both roll the
// WAL into a checkpoint image.
func TestCommitCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.CreateTable("t", 0)
	if err := s.Insert("t", tup(1, "seed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if s.wal.size != 0 {
		t.Fatalf("WAL not reset after round-0 commit (size %d)", s.wal.size)
	}
	if _, err := os.Stat(filepath.Join(dir, "image.db")); err != nil {
		t.Fatalf("no checkpoint image after round-0 commit: %v", err)
	}
}
