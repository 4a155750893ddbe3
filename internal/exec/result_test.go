package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/storage"
	"github.com/rex-data/rex/internal/types"
)

func TestResultSetFoldsDeltas(t *testing.T) {
	rs := newResultSet()
	rs.apply([]types.Delta{
		types.Insert(types.NewTuple(int64(1), "a")),
		types.Insert(types.NewTuple(int64(2), "b")),
		types.Insert(types.NewTuple(int64(3), "c")),
	})
	// Delete a middle tuple; order of survivors is preserved.
	rs.apply([]types.Delta{types.Delete(types.NewTuple(int64(2), "b"))})
	// Replace an existing tuple in place.
	rs.apply([]types.Delta{types.Replace(types.NewTuple(int64(3), "c"), types.NewTuple(int64(3), "C"))})
	// Replace of a missing tuple degrades to insert.
	rs.apply([]types.Delta{types.Replace(types.NewTuple(int64(9), "x"), types.NewTuple(int64(4), "d"))})
	// Delete of a missing tuple is a no-op.
	rs.apply([]types.Delta{types.Delete(types.NewTuple(int64(77), "zz"))})
	got := rs.materialize()
	want := []types.Tuple{
		types.NewTuple(int64(1), "a"),
		types.NewTuple(int64(3), "C"),
		types.NewTuple(int64(4), "d"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestResultSetDuplicatesDeleteOne(t *testing.T) {
	rs := newResultSet()
	tup := types.NewTuple(int64(5), 1.5)
	rs.apply([]types.Delta{types.Insert(tup), types.Insert(tup.Clone()), types.Insert(tup.Clone())})
	rs.apply([]types.Delta{types.Delete(tup)})
	if got := len(rs.materialize()); got != 2 {
		t.Fatalf("after deleting one of three duplicates: %d rows", got)
	}
	rs.apply([]types.Delta{types.Delete(tup), types.Delete(tup)})
	if got := len(rs.materialize()); got != 0 {
		t.Fatalf("after deleting all duplicates: %d rows", got)
	}
}

// The fold equals a multiset model under random inserts, deletes and
// replaces over values where 1 and 1.0 are Equal while NULL and the empty
// string are not, so the index hash must agree with Tuple.Equal.
func TestResultSetFoldMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	vals := []types.Value{int64(1), 1.0, int64(2), 2.0, 2.5, "x", "", nil}
	tuple := func() types.Tuple {
		return types.NewTuple(vals[r.Intn(len(vals))], vals[r.Intn(len(vals))])
	}
	var model []types.Tuple
	remove := func(ts []types.Tuple, t types.Tuple) ([]types.Tuple, bool) {
		for i, m := range ts {
			if m.Equal(t) {
				return append(ts[:i], ts[i+1:]...), true
			}
		}
		return ts, false
	}
	rs := newResultSet()
	for step := 0; step < 4000; step++ {
		var d types.Delta
		switch r.Intn(3) {
		case 0:
			d = types.Insert(tuple())
		case 1:
			d = types.Delete(tuple())
			model, _ = remove(model, d.Tup)
		default:
			d = types.Replace(tuple(), tuple())
			model, _ = remove(model, d.Old)
		}
		if d.Op != types.OpDelete {
			model = append(model, d.Tup)
		}
		rs.apply([]types.Delta{d})
	}
	rest := append([]types.Tuple(nil), model...)
	for _, g := range rs.materialize() {
		var ok bool
		if rest, ok = remove(rest, g); !ok {
			t.Fatalf("fold holds %v beyond the model's multiset", g)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("fold lacks %v", rest)
	}
}

// Hashing a result tuple for the delete/replace index allocates nothing.
func TestResultSetHashAllocs(t *testing.T) {
	rs := newResultSet()
	tup := types.NewTuple(int64(12345), 0.15, "vertex", nil, true)
	if n := testing.AllocsPerRun(100, func() { _ = rs.hash(tup) }); n != 0 {
		t.Fatalf("resultSet.hash: %.1f allocations per tuple, want 0", n)
	}
}

// TestResultSetLargeFoldLinear is a smoke check that the indexed path
// handles a delete-heavy stream at a size where the old O(n²) rescan
// would dominate the test suite.
func TestResultSetLargeFoldLinear(t *testing.T) {
	const n = 50000
	rs := newResultSet()
	batch := make([]types.Delta, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, types.Insert(types.NewTuple(int64(i), fmt.Sprintf("v%d", i))))
	}
	rs.apply(batch)
	dels := make([]types.Delta, 0, n/2)
	for i := 0; i < n; i += 2 {
		dels = append(dels, types.Delete(types.NewTuple(int64(i), fmt.Sprintf("v%d", i))))
	}
	rs.apply(dels)
	if got := len(rs.materialize()); got != n/2 {
		t.Fatalf("got %d rows, want %d", got, n/2)
	}
}

func TestHandleCheckpointRejectsMalformedTuples(t *testing.T) {
	tr := cluster.NewInProcTransport(1)
	w := NewWorker(WorkerConfig{
		Node: 0, Transport: tr, Store: storage.NewStore(0),
		Checkpoints: storage.NewCheckpointStore(), Catalog: catalog.New(),
		Ring: cluster.NewRing(1, 8, 1), QueryID: "q1",
	})
	// A checkpoint tuple whose first field is not an integer hash must be
	// rejected, not silently stored under hash 0.
	bad := cluster.EncodeDeltas([]types.Delta{types.Insert(types.NewTuple("not-a-hash", "S"))})
	err := w.handleCheckpoint(cluster.Message{
		Kind: cluster.MsgCheckpoint, Edge: 3, Stratum: 1, Payload: bad,
	})
	if err == nil {
		t.Fatal("non-integer key hash accepted")
	}
	// Valid frames still land.
	good := cluster.EncodeDeltas([]types.Delta{types.Insert(types.NewTuple(int64(42), "S", int64(7)))})
	if err := w.handleCheckpoint(cluster.Message{
		Kind: cluster.MsgCheckpoint, Edge: 3, Stratum: 1, Payload: good,
	}); err != nil {
		t.Fatal(err)
	}
}
