package rql

import (
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/types"
)

// The rehash in front of a group-by must declare its input's schema: the
// group-by compiles its argument kernels against it, and without one the
// recursive group-by of every fixpoint query interprets its arguments.
func TestGroupByRehashDeclaresSchema(t *testing.T) {
	cat := catalog.New()
	must(t, cat.AddTable(&catalog.Table{
		Name: "graph", Schema: types.MustSchema("srcId:Integer", "destId:Integer"), PartitionKey: 0,
	}))
	must(t, cat.AddTable(&catalog.Table{
		Name: "spseed", Schema: types.MustSchema("srcId:Integer", "dist:Double"), PartitionKey: 0,
	}))
	jn, wn, err := algos.RegisterPageRank(cat, algos.PageRankConfig{Epsilon: 1e-3, Delta: true})
	must(t, err)
	must(t, algos.RegisterIncSSSP(cat))
	listing1 := `
WITH PR (srcId, pr) AS (
  SELECT srcId, 1.0 AS pr FROM graph
) UNION UNTIL FIXPOINT BY srcId USING ` + wn + ` (
  SELECT nbr, 0.15 + 0.85 * sum(prDiff)
  FROM (SELECT ` + jn + `(srcId, pr).{nbr, prDiff}
        FROM graph, PR WHERE graph.srcId = PR.srcId GROUP BY srcId)
  GROUP BY nbr)`
	for name, src := range map[string]string{"listing1": listing1, "incsssp": algos.IncSSSPQuery} {
		spec, err := Compile(src, cat, 2)
		must(t, err)
		fed := 0
		for _, op := range spec.Ops {
			if op.Kind != exec.OpGroupBy {
				continue
			}
			for _, in := range op.Inputs {
				if r := spec.Op(in); r.Kind == exec.OpRehash {
					fed++
					if r.Out == nil {
						t.Errorf("%s: rehash %d feeding group-by %d declares no schema", name, r.ID, op.ID)
					}
				}
			}
		}
		if fed == 0 {
			t.Errorf("%s: no rehash feeds a group-by", name)
		}
	}
}
