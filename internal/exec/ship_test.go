package exec_test

import (
	"slices"
	"testing"

	"github.com/rex-data/rex/internal/algos"
	"github.com/rex-data/rex/internal/catalog"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/job"
	"github.com/rex-data/rex/internal/rql"
	"github.com/rex-data/rex/internal/types"
)

// listing1 is the paper's Listing 1 PageRank over the handlers
// algos.RegisterPageRank installs.
func listing1(joinName, whileName string) string {
	return `
WITH PR (srcId, pr) AS (
  SELECT srcId, 1.0 AS pr FROM graph
) UNION UNTIL FIXPOINT BY srcId USING ` + whileName + ` (
  SELECT nbr, 0.15 + 0.85 * sum(prDiff)
  FROM (SELECT ` + joinName + `(srcId, pr).{nbr, prDiff}
        FROM graph, PR WHERE graph.srcId = PR.srcId GROUP BY srcId)
  GROUP BY nbr)`
}

// TestShuffleDecision pins how every shuffle edge of the repository's
// plans ships: the paper's recursions and incremental SSSP fold every
// edge, and the non-recursive serving and churn queries only append.
// Each edge prints its decision and the reason for it.
func TestShuffleDecision(t *testing.T) {
	const (
		fold    = "Rehash [fold: recursive plan]"
		bfold   = "Broadcast [fold: recursive plan]"
		appends = "Rehash [append: non-recursive plan]"
	)
	// Handler names are deterministic per configuration, so a throwaway
	// catalog yields Listing 1's.
	prCfg := algos.PageRankConfig{Epsilon: 0.001, Delta: true}
	joinName, whileName, err := algos.RegisterPageRank(catalog.New(), prCfg)
	noErr(t, err)
	// compile stages dataset's schemas (or standing-churn's feed table)
	// and both handler bundles, then compiles src.
	compile := func(dataset, src string) func(*testing.T) *exec.PlanSpec {
		return func(t *testing.T) *exec.PlanSpec {
			cat := catalog.New()
			if dataset == "feed" {
				noErr(t, cat.AddTable(&catalog.Table{Name: "feed",
					Schema: types.MustSchema("id:Integer", "k:Integer", "v:Double")}))
			} else {
				noErr(t, job.StageSchemas(cat, dataset, 1000))
			}
			noErr(t, algos.RegisterIncSSSP(cat))
			_, _, err := algos.RegisterPageRank(cat, prCfg)
			noErr(t, err)
			p, _, err := rql.CompileStmt(src, cat, 2)
			noErr(t, err)
			return p
		}
	}
	cases := []struct {
		name string
		plan func(*testing.T) *exec.PlanSpec
		want []string
	}{
		{"PageRank", func(t *testing.T) *exec.PlanSpec {
			return algos.PageRankPlan(prCfg, joinName, whileName)
		}, []string{fold}},
		{"SSSP", func(t *testing.T) *exec.PlanSpec {
			cfg := algos.SSSPConfig{Source: 0, Delta: true}
			jn, wn, err := algos.RegisterSSSP(catalog.New(), cfg)
			noErr(t, err)
			return algos.SSSPPlan(cfg, jn, wn)
		}, []string{fold}},
		{"k-means", func(t *testing.T) *exec.PlanSpec {
			cfg := algos.KMeansConfig{K: 4}
			jn, wn, err := algos.RegisterKMeans(catalog.New(), cfg)
			noErr(t, err)
			return algos.KMeansPlan(cfg, jn, wn)
		}, []string{bfold, fold}},
		{"IncSSSPQuery", compile("sssp", algos.IncSSSPQuery), []string{fold}},
		{"Listing 1", compile("dbpedia", listing1(joinName, whileName)), []string{fold}},
		{"serve-mixed point", compile("lineitem",
			`SELECT linenumber, extendedprice FROM lineitem WHERE orderkey = $1`), nil},
		{"serve-mixed scan", compile("lineitem",
			`SELECT orderkey, linenumber, extendedprice FROM lineitem WHERE quantity < 2.0 AND linenumber > 6`), nil},
		{"serve-mixed aggregate", compile("lineitem",
			`SELECT returnflag, sum(extendedprice), count(*) FROM lineitem WHERE quantity < 30.00 AND linenumber > 1 GROUP BY returnflag`),
			[]string{appends}},
		{"standing-churn", compile("feed", `SELECT k, count(*), sum(v) FROM feed GROUP BY k`), []string{appends}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.plan(t)
			var got []string
			for _, op := range p.Ops {
				if op.Kind == exec.OpRehash || op.Kind == exec.OpBroadcast {
					got = append(got, op.String())
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("shuffle edges %q, want %q", got, c.want)
			}
		})
	}
}

func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
