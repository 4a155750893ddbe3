package rql

import (
	"strings"
	"testing"

	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/types"
)

// keyEqCatalog holds t(k, v, name) partitioned by k, and u(a, s)
// partitioned by its string column s, plus the merge catalog's graph,
// spread handler and twice UDF.
func keyEqCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := mergeCatalog(t)
	must(t, cat.AddTable(&catalog.Table{
		Name: "t", Schema: types.MustSchema("k:Integer", "v:Double", "name:String"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "u", Schema: types.MustSchema("a:Integer", "s:String"), PartitionKey: 1,
	}))
	must(t, cat.RegisterFunc(&catalog.FuncDef{
		Name: "bump", ArgKinds: []types.Kind{types.KindInt}, RetKind: types.KindInt, Deterministic: true,
		Fn: func(args []types.Value) (types.Value, error) { return args[0].(int64) + 1, nil },
	}))
	return cat
}

// scansOf compiles src and returns the plan with its scan ops'
// descriptions.
func scansOf(t *testing.T, cat *catalog.Catalog, src string) (*exec.PlanSpec, []string) {
	t.Helper()
	p, _, err := CompileStmt(src, cat, 2)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var out []string
	for _, op := range p.Ops {
		if op.Kind == exec.OpScan {
			out = append(out, op.String())
		}
	}
	return p, out
}

// The binder pushes `partition key = <literal or $n>` into the scan — and
// nothing else. The conjunct always stays behind as a filter.
func TestKeyEqualityPushedIntoScan(t *testing.T) {
	cat := keyEqCatalog(t)
	pushed := []struct{ src, scan string }{
		{`SELECT v FROM t WHERE k = 7`, `Scan t [key = 7]`},
		{`SELECT v FROM t WHERE 7 = k`, `Scan t [key = 7]`},
		{`SELECT v FROM t WHERE k = $1`, `Scan t [key = $1]`},
		{`SELECT v FROM t WHERE k = -7`, `Scan t [key = (0 - 7)]`},
		{`SELECT v FROM t WHERE v > 1.0 AND k = $1 AND name = 'x'`, `Scan t [key = $1]`},
		{`SELECT x.v FROM t x WHERE x.k = 7`, `Scan t [key = 7]`},
		{`SELECT a FROM u WHERE s = 'west'`, `Scan u [key = 'west']`},
		{`SELECT k, sum(v) FROM t WHERE k = 7 GROUP BY k`, `Scan t [key = 7]`},
	}
	for _, c := range pushed {
		p, scans := scansOf(t, cat, c.src)
		if len(scans) != 1 || scans[0] != c.scan {
			t.Errorf("%s: scans = %q, want [%q]", c.src, scans, c.scan)
		}
		kept := false
		for _, op := range p.Ops {
			kept = kept || (op.Kind == exec.OpFilter && strings.Contains(op.Pred.String(), "="))
		}
		if !kept {
			t.Errorf("%s: the pushed equality did not stay as a filter", c.src)
		}
	}

	notPushed := []string{
		`SELECT v FROM t WHERE k = 7.0`,     // float literal against an integer key
		`SELECT v FROM t WHERE k = v`,       // another column
		`SELECT v FROM t WHERE k = bump(k)`, // depends on the row
		`SELECT v FROM t WHERE k = bump(7)`, // a call is not a literal
		`SELECT v FROM t WHERE k > 7`,       // not an equality
		`SELECT v FROM t WHERE k <> 7`,
		`SELECT v FROM t WHERE k = 7 OR k = 8`, // not a conjunct
		`SELECT v FROM t WHERE NOT (k = 7)`,
		`SELECT v FROM t WHERE name = 'x'`,               // not the partition column
		`SELECT a FROM u WHERE a = 7`,                    // u is partitioned by s
		`SELECT v FROM t WHERE v = $1 AND k = $1`,        // $1 already inferred Double
		`SELECT k FROM (SELECT k, v FROM t) WHERE k = 7`, // sub-select FROM
		`SELECT k FROM (SELECT k, v FROM t WHERE v > 0.0) AS x WHERE x.k = 7`,
	}
	for _, src := range notPushed {
		_, scans := scansOf(t, cat, src)
		for _, scan := range scans {
			if strings.Contains(scan, "[") {
				t.Errorf("%s: scan %q has a pushed key", src, scan)
			}
		}
	}
	// NULL is not an RQL literal at all, so there is no `key = NULL` to push.
	if _, _, err := CompileStmt(`SELECT v FROM t WHERE k = NULL`, cat, 2); err == nil {
		t.Error("k = NULL compiled; the pushdown assumes NULL literals do not exist")
	}
}

// A recursive query's base case is an ordinary select block, so its scan
// takes the pushdown; the immutable side of the recursive join never does.
func TestKeyEqualityInRecursiveBaseCase(t *testing.T) {
	cat := keyEqCatalog(t)
	_, scans := scansOf(t, cat, `
WITH R (srcId, v) AS (
  SELECT srcId, 1.0 AS v FROM graph WHERE srcId = $1
) UNION UNTIL FIXPOINT BY srcId (
  SELECT nbr, sum(a), sum(b)
  FROM (SELECT spread(srcId, v).{nbr, a, b}
        FROM graph, R WHERE graph.srcId = R.srcId GROUP BY srcId)
  GROUP BY nbr)`)
	want := []string{`Scan graph [key = $1]`, `Scan graph`}
	if len(scans) != 2 || scans[0] != want[0] || scans[1] != want[1] {
		t.Fatalf("scans = %q, want %q", scans, want)
	}
}
