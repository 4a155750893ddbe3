package rex

import (
	"context"
	"testing"

	"github.com/rex-data/rex/internal/bench"
)

// A key equality pushed into the scan must be invisible except in cost:
// `WHERE orderkey = $1` (pushed: the scan reads one index chain, or one
// hash-filtered page walk on a paged store) returns exactly what
// `WHERE orderkey >= $1 AND orderkey <= $1` (not pushable: a full scan
// and two filters) returns — for a key with several rows, a key with
// one, and keys that are absent.
const (
	keyedPoint = `SELECT linenumber, extendedprice FROM lineitem WHERE orderkey = $1`
	keyedRange = `SELECT linenumber, extendedprice FROM lineitem WHERE orderkey >= $1 AND orderkey <= $1`
)

// keyedProbes picks the probe keys from the staged lineitem table: the
// first order with at least three lines, the first with exactly one, and
// two keys outside the table.
func keyedProbes(t *testing.T, sess *Session) []int64 {
	t.Helper()
	res, err := sess.QueryCtx(context.Background(), `SELECT orderkey, count(*) FROM lineitem GROUP BY orderkey`)
	if err != nil {
		t.Fatal(err)
	}
	multi, single := int64(0), int64(0)
	for _, row := range res.Tuples {
		key, n := row[0].(int64), row[1].(int64)
		if n >= 3 && (multi == 0 || key < multi) {
			multi = key
		}
		if n == 1 && (single == 0 || key < single) {
			single = key
		}
	}
	if multi == 0 || single == 0 {
		t.Fatalf("lineitem has no multi-row (%d) or single-row (%d) order", multi, single)
	}
	return []int64{multi, single, -5, 1 << 40}
}

func checkKeyedEquivalence(t *testing.T, sess *Session, probes []int64, opts Options) {
	t.Helper()
	ctx := context.Background()
	point, err := sess.Prepare(keyedPoint)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := sess.Prepare(keyedRange)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range probes {
		got, err := point.QueryCtx(ctx, opts, key)
		if err != nil {
			t.Fatalf("point $1=%d: %v", key, err)
		}
		want, err := scan.QueryCtx(ctx, opts, key)
		if err != nil {
			t.Fatalf("range $1=%d: %v", key, err)
		}
		if present := i < 2; present != (len(want.Tuples) > 0) {
			t.Fatalf("$1=%d: range scan returned %d rows", key, len(want.Tuples))
		}
		if i == 0 && len(want.Tuples) < 3 {
			t.Fatalf("$1=%d: multi-row key returned %d rows", key, len(want.Tuples))
		}
		if g, w := bench.ResultHash(got.Tuples), bench.ResultHash(want.Tuples); g != w {
			t.Errorf("$1=%d: key lookup %v, range scan %v", key, got.Tuples, want.Tuples)
		}
	}
}

func TestKeyLookupMatchesRangeScan(t *testing.T) {
	ctx := context.Background()
	dataset := WithDataset("lineitem", 3000, 4)
	// One session per backend, plus "novectorize": compiled kernels off,
	// every expression through the interpreter.
	sessions := []struct {
		name string
		opts []Option
		q    Options
	}{
		{"inproc", []Option{WithInProc(3), dataset}, Options{}},
		{"novectorize", []Option{WithInProc(3), dataset}, Options{NoVectorize: true}},
		{"spill", []Option{WithInProc(3), dataset, WithSpillDir(t.TempDir()), WithBufferPoolPages(8)}, Options{}},
		{"tcp", []Option{WithTCPPeers(startDaemons(t, 3)...), dataset}, Options{}},
	}
	for _, c := range sessions {
		t.Run(c.name, func(t *testing.T) {
			sess, err := Open(ctx, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			checkKeyedEquivalence(t, sess, keyedProbes(t, sess), c.q)
		})
	}
}

// With a node dead, the key's rows come from a promoted replica: each
// query restarts under a snapshot without the dead node, and the lookup
// asks that snapshot who owns the key, exactly as the scan does per row.
// Every node takes a turn being the dead one, so each probe key loses its
// primary once.
func TestKeyLookupAfterPrimaryKilled(t *testing.T) {
	sess, err := Open(context.Background(), WithInProc(3), WithReplication(2), WithDataset("lineitem", 3000, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	probes := keyedProbes(t, sess)
	for node := 0; node < sess.Nodes(); node++ {
		if err := sess.Kill(node); err != nil {
			t.Fatal(err)
		}
		checkKeyedEquivalence(t, sess, probes, Options{Recovery: RecoveryRestart})
		if err := sess.Revive(node); err != nil {
			t.Fatal(err)
		}
	}
}

// A standing query whose scan carries a pushed key still sees every base
// delta (Inject bypasses the lookup) and still filters them exactly:
// folding its stream equals the query run from scratch afterwards.
func TestSubscribeOnKeyEquality(t *testing.T) {
	const q = `SELECT destId FROM graph WHERE srcId = 7`
	ctx := context.Background()
	sess, err := Open(ctx, WithInProc(3), WithDataset("dbpedia", 200, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sub, err := sess.Subscribe(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	view := &streamFold{}
	st := sub.Stream()
	foldStream(t, st, sub.Rounds()[0].Batches, view)
	initial := len(view.live)

	edge := func(src, dst int64) Tuple { return NewTuple(src, dst) }
	steps := []struct {
		ins, del []Tuple
	}{
		{ins: []Tuple{edge(7, 901), edge(8, 902), edge(7, 903)}},
		{del: []Tuple{edge(7, 901)}},
		{ins: []Tuple{edge(6, 904), edge(7, 901)}, del: []Tuple{edge(8, 902)}},
		{del: []Tuple{edge(7, 903), edge(7, 999)}}, // 999 was never there
	}
	for _, s := range steps {
		if len(s.ins) > 0 {
			if err := sess.Insert("graph", s.ins...); err != nil {
				t.Fatal(err)
			}
		}
		if len(s.del) > 0 {
			if err := sess.Delete("graph", s.del...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range sub.Rounds()[1:] {
		foldStream(t, st, r.Batches, view)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := sess.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bench.ResultHash(view.live), bench.ResultHash(res.Tuples); got != want {
		t.Fatalf("folded view %v != from-scratch %v", view.live, res.Tuples)
	}
	if len(view.live) != initial+1 { // +901 +903 −901 +901 −903
		t.Fatalf("view holds %d rows, want %d", len(view.live), initial+1)
	}
}
