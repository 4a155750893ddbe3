package rex

import (
	"context"
	"testing"

	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/types"
)

// openTest opens an in-process session closed at the end of the test.
func openTest(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s, err := Open(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// mustLoad declares a table and loads its rows.
func mustLoad(t *testing.T, s *Session, table string, schema *types.Schema, rows []Tuple) {
	t.Helper()
	if err := s.CreateTable(table, schema, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(table, rows); err != nil {
		t.Fatal(err)
	}
}

func TestClusterQuickstart(t *testing.T) {
	c := openTest(t, WithInProc(3))
	var rows []Tuple
	for i := 0; i < 100; i++ {
		rows = append(rows, NewTuple(int64(i), float64(i)))
	}
	mustLoad(t, c, "items", Schema("k:Integer", "v:Double"), rows)
	res, err := c.QueryCtx(context.Background(), `SELECT sum(v), count(*) FROM items WHERE k >= 50`)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := types.AsFloat(res.Tuples[0][0])
	n, _ := types.AsInt(res.Tuples[0][1])
	if n != 50 || sum != float64(50+99)*50/2 {
		t.Fatalf("sum=%v n=%v", sum, n)
	}
	if c.BytesShipped() <= 0 {
		t.Fatal("bytes shipped should be positive")
	}
}

// A multi-column GROUP BY keeps NULL apart from the empty string, and a
// 0x1f byte inside a string apart from a column boundary: five distinct
// (a, b) pairs are five groups.
func TestGroupByCompositeKeysStayDistinct(t *testing.T) {
	c := openTest(t, WithInProc(2))
	rows := []Tuple{
		NewTuple("x", nil), NewTuple("x", ""),
		NewTuple("a\x1fb", "c"), NewTuple("a", "b\x1fc"),
		NewTuple("1", "z"),
	}
	mustLoad(t, c, "g", Schema("a:String", "b:String"), rows)
	res, err := c.QueryCtx(context.Background(), `SELECT a, b, count(*) FROM g GROUP BY a, b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(rows) {
		t.Fatalf("%d groups %v, want %d", len(res.Tuples), res.Tuples, len(rows))
	}
	for _, g := range res.Tuples {
		if n, _ := types.AsInt(g[2]); n != 1 {
			t.Errorf("group %v counts %d rows, want 1", g, n)
		}
	}
}

func TestClusterCustomHandlersRecursive(t *testing.T) {
	// Connected reachability via custom while handler through the public
	// API only.
	c := openTest(t, WithInProc(2))
	g := datagen.DBPediaGraph(100, 5)
	mustLoad(t, c, "graph", Schema("srcId:Integer", "destId:Integer"), g.Edges)
	mustLoad(t, c, "seed", Schema("srcId:Integer", "dist:Double"), []Tuple{NewTuple(int64(0), 0.0)})

	err := c.JoinHandler("hops", Schema("nbr:Integer", "d:Double"),
		func(left, right *TupleSet, d Delta, fromLeft bool, out *Emitter) error {
			if fromLeft {
				left.Add(d.Tup)
				return nil
			}
			dist, _ := types.AsFloat(d.Tup[1])
			for i := 0; i < left.Len(); i++ {
				out.Begin(OpUpdate)
				out.Field(left, i, 1)
				out.Float(dist + 1)
				if err := out.End(); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	err = c.WhileHandler("keepmin", func(rel *TupleSet, d Delta, out *Emitter) error {
		nd, _ := types.AsFloat(d.Tup[1])
		if rel.Len() > 0 {
			cur, _ := rel.Float(0, 1)
			if nd >= cur {
				return nil
			}
			rel.Set(0, NewTuple(d.Tup[0], nd))
		} else {
			rel.Add(NewTuple(d.Tup[0], nd))
		}
		return out.Emit(Update(NewTuple(d.Tup[0], nd)))
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.QueryCtx(context.Background(), `
WITH SP (srcId, dist) AS (
  SELECT srcId, dist FROM seed
) UNION ALL UNTIL FIXPOINT BY srcId USING keepmin (
  SELECT nbr, min(d)
  FROM (SELECT hops(srcId, dist).{nbr, d}
        FROM graph, SP WHERE graph.srcId = SP.srcId GROUP BY srcId)
  GROUP BY nbr)`, WithMaxStrata(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 100 {
		t.Fatalf("reached %d vertices, want 100", len(res.Tuples))
	}
}

func TestRegisterFuncAndUse(t *testing.T) {
	c := openTest(t)
	mustLoad(t, c, "t", Schema("x:Integer"), []Tuple{NewTuple(int64(2)), NewTuple(int64(5))})
	err := c.RegisterFunc("sq", []types.Kind{types.KindInt}, types.KindInt, true,
		func(args []Value) (Value, error) {
			n, _ := types.AsInt(args[0])
			return n * n, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryCtx(context.Background(), `SELECT sq(x) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]bool{}
	for _, tup := range res.Tuples {
		n, _ := types.AsInt(tup[0])
		got[n] = true
	}
	if !got[4] || !got[25] {
		t.Fatalf("got %v", got)
	}
}
