package rql

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/datagen"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/expr"
	"github.com/rex-data/rex/internal/types"
	"github.com/rex-data/rex/internal/uda"
)

// mergeCatalog holds a graph, a two-value handler `spread` yielding
// (nbr, a, b), and a scalar UDF `twice`.
func mergeCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0,
	}))
	must(t, cat.RegisterJoinHandler(&uda.FuncJoinHandler{
		HName: "spread",
		Out:   types.MustSchema("nbr:Integer", "a:Double", "b:Double"),
		Fn: func(left, right *uda.TupleSet, d types.Delta, fromLeft bool, out *uda.Emitter) error {
			return nil
		},
	}))
	must(t, cat.RegisterFunc(&catalog.FuncDef{
		Name: "twice", ArgKinds: []types.Kind{types.KindFloat}, RetKind: types.KindFloat, Deterministic: true,
		Fn: func(args []types.Value) (types.Value, error) { return args[0].(float64) * 2, nil },
	}))
	return cat
}

// recursiveMerge compiles a recursion whose recursive case selects
// `nbr, <items>` grouped by nbr over the spread handler, and returns the
// CompactMerge of the rehash feeding that group-by.
func recursiveMerge(t *testing.T, cat *catalog.Catalog, items string) (map[int]string, error) {
	t.Helper()
	src := `
WITH R (srcId, v) AS (
  SELECT srcId, 1.0 AS v FROM graph
) UNION UNTIL FIXPOINT BY srcId (
  SELECT nbr, ` + items + `
  FROM (SELECT spread(srcId, v).{nbr, a, b}
        FROM graph, R WHERE graph.srcId = R.srcId GROUP BY srcId)
  GROUP BY nbr)`
	p, err := Compile(src, cat, 2)
	if err != nil {
		return nil, err
	}
	var rehashes []*exec.OpSpec
	for _, op := range p.Ops {
		if op.Kind == exec.OpRehash {
			rehashes = append(rehashes, op)
		}
	}
	if len(rehashes) != 1 {
		t.Fatalf("recursion has %d rehash ops, want 1", len(rehashes))
	}
	return rehashes[0].CompactMerge, nil
}

// The binder declares the recursive-case rehash's δ-merge exactly when the
// group-by it feeds folds every column with sum, min or max over a bare
// column — and never outside a recursion.
func TestBinderDeclaresCompactMerge(t *testing.T) {
	cat := mergeCatalog(t)
	declared := []struct {
		items string
		want  map[int]string
	}{
		{"sum(a)", map[int]string{1: "sum"}},
		{"0.15 + 0.85 * sum(a)", map[int]string{1: "sum"}},
		{"min(b)", map[int]string{1: "min"}},
		{"max(a), min(b)", map[int]string{1: "max", 2: "min"}},
		{"sum(a), max(a)", map[int]string{1: "sum", 2: "max"}},
	}
	for _, tc := range declared {
		got, err := recursiveMerge(t, cat, tc.items)
		must(t, err)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: CompactMerge = %v, want %v", tc.items, got, tc.want)
		}
	}
	undeclared := []string{
		"avg(a)",           // needs the row count
		"count(*)",         // a merged row would count once
		"sum(a), count(*)", // one unmergeable aggregate spoils the row
		"argmin(a, b)",     // companion column
		"sum(a * 2.0)",     // expression argument
		"sum(twice(a))",    // UDF argument
		"sum(a + b)",       // expression over two columns
		"min(a), avg(b)",   // mixed
		"0.5 * sum(a) + count(*)",
	}
	for _, items := range undeclared {
		got, err := recursiveMerge(t, cat, items)
		must(t, err)
		if got != nil {
			t.Errorf("%s: CompactMerge = %v, want none", items, got)
		}
	}
	// A user-defined aggregate has no spelling in an RQL recursive case —
	// the binder rejects the query — so nothing can be declared for one.
	if _, err := recursiveMerge(t, cat, "twice(a)"); err == nil {
		t.Error("a non-aggregate recursive case must not compile")
	}

	// Outside a recursion (including a recursion's own base case) nothing
	// is declared: those streams are insertions, which §5.2 pre-aggregation
	// folds instead.
	for _, src := range []string{
		"SELECT srcId, sum(destId) FROM graph GROUP BY srcId",
		"SELECT srcId, min(destId), max(destId) FROM graph GROUP BY srcId",
		`WITH R (srcId, v) AS (
		   SELECT srcId, sum(destId) AS v FROM graph GROUP BY srcId
		 ) UNION UNTIL FIXPOINT BY srcId (
		   SELECT nbr, avg(a)
		   FROM (SELECT spread(srcId, v).{nbr, a, b}
		         FROM graph, R WHERE graph.srcId = R.srcId GROUP BY srcId)
		   GROUP BY nbr)`,
	} {
		p, err := Compile(src, cat, 2)
		must(t, err)
		for _, op := range p.Ops {
			if op.Kind == exec.OpRehash && op.CompactMerge != nil {
				t.Errorf("%q: rehash %d declares %v outside the recursive case", src, op.ID, op.CompactMerge)
			}
		}
	}
}

// graphCatalog holds the "sssp" dataset shape: graph + one-row seed.
func graphCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "spseed", Schema: types.MustSchema("srcId:Integer", "dist:Double"), PartitionKey: 0,
	}))
	return cat
}

// runGraphQuery runs an RQL recursion over a two-node engine staged with
// the "sssp" dataset, after edit (if any) revises the compiled plan.
func runGraphQuery(t *testing.T, g *datagen.Graph, register func(*catalog.Catalog) string, opts exec.Options, edit func(*exec.PlanSpec)) *exec.Result {
	t.Helper()
	cat := graphCatalog(t)
	text := register(cat)
	spec, err := Compile(text, cat, 2)
	must(t, err)
	if edit != nil {
		edit(spec)
	}
	eng := exec.NewEngine(2, 64, 1, cat)
	must(t, eng.Load("graph", 0, g.Edges))
	must(t, eng.Load("spseed", 0, []types.Tuple{types.NewTuple(int64(0), 0.0)}))
	opts.MaxStrata = 500
	res, err := eng.Run(spec, opts)
	must(t, err)
	return res
}

func sortedByVertex(ts []types.Tuple) []types.Tuple {
	out := append([]types.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i][0].(int64) < out[j][0].(int64) })
	return out
}

// pageRankRQL is Listing 1 over the handlers RegisterPageRank installs,
// summing agg (sum(prDiff) in the listing).
func pageRankRQL(t *testing.T, agg string) func(*catalog.Catalog) string {
	return func(cat *catalog.Catalog) string {
		jn, wn, err := algos.RegisterPageRank(cat, algos.PageRankConfig{Epsilon: 0.001, Delta: true})
		must(t, err)
		return `
WITH PR (srcId, pr) AS (
  SELECT srcId, 1.0 AS pr FROM graph
) UNION UNTIL FIXPOINT BY srcId USING ` + wn + ` (
  SELECT nbr, 0.15 + 0.85 * ` + agg + `
  FROM (SELECT ` + jn + `(srcId, pr).{nbr, prDiff}
        FROM graph, PR WHERE graph.srcId = PR.srcId GROUP BY srcId)
  GROUP BY nbr)`
	}
}

func incSSSPRQL(t *testing.T) func(*catalog.Catalog) string {
	return func(cat *catalog.Catalog) string {
		must(t, algos.RegisterIncSSSP(cat))
		return algos.IncSSSPQuery
	}
}

func stripMerges(p *exec.PlanSpec) {
	for _, op := range p.Ops {
		op.CompactMerge = nil
	}
}

// sameResult fails t unless two runs hold the same rows, vertex for
// vertex, with values within 1e-9 relative: delta PageRank's float sums
// are never bit-identical between runs.
func sameResult(t *testing.T, got, want *exec.Result, what string) {
	t.Helper()
	g, w := sortedByVertex(got.Tuples), sortedByVertex(want.Tuples)
	if len(g) != len(w) {
		t.Fatalf("result rows: %d %s", len(g), what)
	}
	for i := range g {
		x, _ := types.AsFloat(g[i][1])
		y, _ := types.AsFloat(w[i][1])
		if g[i][0] != w[i][0] || math.Abs(x-y) > 1e-9*math.Max(1, math.Abs(y)) {
			t.Fatalf("row %d: %v, %v %s", i, g[i], w[i], what)
		}
	}
}

// Listing 1 and the incremental SSSP query, written in RQL, actually fold
// in the shuffle: with compaction on, the deltas entering the shuffle are
// exactly those of a run whose merges were stripped from the plan
// (declaring a merge changes what leaves the store, never what enters),
// at most a quarter of them leave it, and strata and result equal a
// compaction-off run's.

func TestRecursiveRQLFoldsInShuffle(t *testing.T) {
	g := datagen.DBPediaGraph(1500, 1)
	queries := []struct {
		name     string
		register func(*catalog.Catalog) string
	}{
		{"pagerank", pageRankRQL(t, "sum(prDiff)")},
		{"sssp", incSSSPRQL(t)},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			off := runGraphQuery(t, g, q.register, exec.Options{}, nil)
			stripped := runGraphQuery(t, g, q.register, exec.Options{Compaction: true}, stripMerges)
			on := runGraphQuery(t, g, q.register, exec.Options{Compaction: true}, nil)

			if off.CompactIn != 0 || off.CompactOut != 0 {
				t.Fatalf("compaction-off run counted compactor traffic %d/%d", off.CompactIn, off.CompactOut)
			}
			if on.CompactIn == 0 || on.CompactIn != stripped.CompactIn {
				t.Errorf("deltas entering the shuffle: %d with the merge declared, %d without", on.CompactIn, stripped.CompactIn)
			}
			t.Logf("shuffle %d → %d deltas, wire %d vs %d bytes, %d strata", on.CompactIn, on.CompactOut, on.BytesSent, off.BytesSent, len(on.Strata))
			if on.CompactOut*4 > on.CompactIn {
				t.Errorf("shuffle folded %d → %d deltas, want at least 4×", on.CompactIn, on.CompactOut)
			}
			if on.BytesSent >= off.BytesSent {
				t.Errorf("wire bytes %d with compaction, %d without", on.BytesSent, off.BytesSent)
			}
			if len(on.Strata) != len(off.Strata) {
				t.Fatalf("strata: %d with compaction, %d without", len(on.Strata), len(off.Strata))
			}
			for i := range on.Strata {
				if on.Strata[i].NewTuples != off.Strata[i].NewTuples {
					t.Errorf("stratum %d: Δ size %d with compaction, %d without", i, on.Strata[i].NewTuples, off.Strata[i].NewTuples)
				}
			}
			sameResult(t, on, off, "with compaction, without")
		})
	}
}

// Listing 1 and the incremental SSSP query group their handler join's
// output as it is, so the binder feeds the join straight into the rehash:
// the pre-group-by projection would be the identity. An aggregate over an
// expression still gets one, and splicing the identity projection back in
// changes no result.
func TestBinderDropsIdentityPreGroupByProjection(t *testing.T) {
	rehashInput := func(register func(*catalog.Catalog) string) *exec.OpSpec {
		cat := graphCatalog(t)
		p, err := Compile(register(cat), cat, 2)
		must(t, err)
		for _, op := range p.Ops {
			if op.Kind == exec.OpRehash {
				return p.Op(op.Inputs[0])
			}
		}
		t.Fatal("recursion has no rehash")
		return nil
	}
	queries := []struct {
		name     string
		register func(*catalog.Catalog) string
	}{
		{"pagerank", pageRankRQL(t, "sum(prDiff)")},
		{"sssp", incSSSPRQL(t)},
	}
	for _, q := range queries {
		if in := rehashInput(q.register); in.Kind != exec.OpHashJoin {
			t.Errorf("%s: the rehash reads a %v, want the handler join", q.name, in.Kind)
		}
	}
	if in := rehashInput(pageRankRQL(t, "sum(prDiff * 2)")); in.Kind != exec.OpProject {
		t.Errorf("sum(prDiff * 2): the rehash reads a %v, want the pre-group-by projection", in.Kind)
	}

	spliceIdentity := func(p *exec.PlanSpec) {
		for _, op := range p.Ops {
			if op.Kind != exec.OpRehash {
				continue
			}
			join := p.Op(op.Inputs[0])
			var cols []expr.Expr
			for i, f := range join.Out.Fields {
				cols = append(cols, expr.NewCol(i, f.Kind, f.Name))
			}
			op.Inputs[0] = p.Add(&exec.OpSpec{Kind: exec.OpProject, Inputs: []int{join.ID}, Exprs: cols, Out: join.Out}).ID
			return
		}
	}
	g := datagen.DBPediaGraph(1500, 1)
	for _, q := range queries {
		without := runGraphQuery(t, g, q.register, exec.Options{Compaction: true}, nil)
		with := runGraphQuery(t, g, q.register, exec.Options{Compaction: true}, spliceIdentity)
		if len(without.Strata) != len(with.Strata) {
			t.Errorf("%s: %d strata without the identity projection, %d with it", q.name, len(without.Strata), len(with.Strata))
		}
		sameResult(t, without, with, "without the identity projection, with it")
	}
}
